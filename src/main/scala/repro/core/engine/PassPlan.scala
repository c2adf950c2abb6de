package repro.core.engine

import java.util.stream.IntStream

import scala.collection.mutable

import repro.core.ivf.IVF
import repro.core.qdtree.Pred
import repro.core.vec.{BatchScorer, Block, Metric}
import repro.workload.{Template, Workload}

/** The plan of one batch pass as primitive arrays, broadcast to every task:
  * each query's template id and vector (query `q` is the `d` floats of
  * `queryVecs` from `q * d` on), and the probe table in CSR form: the
  * queries probing dense cell `c` are `cellQueries(cellOff(c) until
  * cellOff(c + 1))`, grouped by template. An exhaustive pass has no probe
  * table: `cellOff` is null, and every cell's queries are all of
  * `cellQueries`.
  */
private[engine] final case class ExecPlan(queryTids: Array[Int], queryVecs: Array[Float], d: Int,
                                          templates: Map[Int, Seq[Pred]],
                                          cellOff: Array[Int], cellQueries: Array[Int],
                                          metric: Metric, opts: EngineOptions)

/** Cell ranking on one thread (one instance per thread): each query's
  * nprobe L2-nearest cells out of a routed set's centroid block, ties
  * broken by cell index, which orders cells as their probe keys do — the
  * cells one [[repro.core.vec.TopK]] per query over the set's centroids keeps. The
  * block's ids must ascend with its rows.
  */
private[core] final class CellRanker {
  private val scorer = new BatchScorer
  private var work = new Array[Float](0)
  private var sel = new Array[Float](0)
  private var rows = new Array[Int](0)

  /** For each query `q = qs(i)`, `i` in `from until until`: writes the
    * `min(nprobe(q), cents.n)` best cells of `cents` (its ids, as ints) to
    * `out` from `outOff(q)` on. The queries are scored four at a time; a
    * query that takes every cell copies them in block order.
    */
  def rank(cents: Block, vecs: Array[Float], d: Int, qs: Array[Int], from: Int, until: Int,
           nprobe: Array[Int], out: Array[Int], outOff: Array[Int]): Unit = {
    val n = cents.n
    val flat = scorer.scores(vecs, d, qs, from, until, cents, IVF.AssignMetric)
    if (rows.length < n) { work = new Array[Float](n); sel = new Array[Float](n); rows = new Array[Int](n) }
    var i = from
    while (i < until) {
      val q = qs(i); val o = outOff(q); val np = nprobe(q)
      if (np >= n) {
        var j = 0
        while (j < n) { out(o + j) = cents.ids(j).toInt; j += 1 }
      } else select(flat, (i - from) * cents.stride, n, np, cents.ids, out, o)
      i += 1
    }
  }

  /** Writes the ids of the `np < n` best of the scores `flat(row until
    * row + n)` to `out` from `o` on. The np-th smallest of the minima of
    * `2·np` strided groups of rows bounds the np-th best score from above
    * (np groups each hold a row at or below it), and few rows pass the
    * bound; the exact np-th best among them is the threshold. The rows
    * below it, then the first rows at it, are the np best.
    */
  private def select(flat: Array[Float], row: Int, n: Int, np: Int, ids: Array[Long],
                     out: Array[Int], o: Int): Unit = {
    val groups = math.min(n, 2 * np)
    System.arraycopy(flat, row, work, 0, groups)
    var j = groups
    while (j < n) {
      val e = math.min(groups, n - j)
      var b = 0
      while (b < e) { work(b) = math.min(work(b), flat(row + j + b)); b += 1 }
      j += groups
    }
    val bound = CellRanker.kth(work, groups, np - 1)
    var m = 0
    j = 0
    while (j < n) {
      if (flat(row + j) <= bound) { work(m) = flat(row + j); rows(m) = j; m += 1 }
      j += 1
    }
    System.arraycopy(work, 0, sel, 0, m)
    val t = CellRanker.kth(sel, m, np - 1)
    var c = 0
    j = 0
    while (j < m) { if (work(j) < t) { out(o + c) = ids(rows(j)).toInt; c += 1 }; j += 1 }
    j = 0
    while (c < np) { if (work(j) == t) { out(o + c) = ids(rows(j)).toInt; c += 1 }; j += 1 }
  }
}

private[core] object CellRanker {
  /** The `k`-th smallest of `a(0 until n)` (from 0), reordering `a`
    * (Hoare's selection, pivoting on the value at place `k`).
    */
  def kth(a: Array[Float], n: Int, k: Int): Float = {
    var lo = 0; var hi = n - 1
    while (lo < hi) {
      val x = a(k)
      var i = lo; var j = hi
      while (i <= j) {
        while (a(i) < x) i += 1
        while (x < a(j)) j -= 1
        if (i <= j) { val t = a(i); a(i) = a(j); a(j) = t; i += 1; j -= 1 }
      }
      if (j < k) lo = i
      if (k < i) hi = j
    }
    a(k)
  }
}

/** Driver planning of a batch pass: cell ranking, then the probe table. */
private[engine] object PassPlan {

  /** Queries per ranking task: one kernel call scores them all. */
  private val Chunk = 64

  /** A workload's queries as primitive arrays (see [[ExecPlan]]) with each
    * query's probed cells: query `q` probes the dense cells
    * `cells(cellsOff(q) until cellsOff(q + 1))`. An exhaustive pass lists
    * no cells (`cellsOff` and `cells` are null): every query scans every
    * cell.
    */
  final class Ranked(val qids: Array[Long], val tids: Array[Int], val vecs: Array[Float], val d: Int,
                     val cellsOff: Array[Int], val cells: Array[Int], val routedTuples: Long)

  /** Routes every query and ranks the cells of its routed partitions.
    * nprobe counts cells *globally across the query's routed partitions*,
    * ranked by centroid distance — per-partition IVFs behave as one IVF
    * over the union of their centroids, which keeps nprobe semantics
    * comparable across single- and multi-partition layouts. Queries that
    * share a routed set (at m = 0, a template's) are ranked together
    * against the set's centroids concatenated into one block. An
    * exhaustive pass is neither routed nor ranked: its plan lists no cells.
    * Every query vector must have the index's dimension, that of its
    * centroids, and only finite components.
    */
  def rank(index: PartitionedIndex, workload: Workload, opts: EngineOptions): Ranked = {
    val nq = workload.queries.length
    val d = index.leaves(0).centroids(0).length
    val qids = new Array[Long](nq)
    val tids = new Array[Int](nq)
    val vecs = new Array[Float](nq * d)
    var qi = 0
    while (qi < nq) {
      val q = workload.queries(qi)
      require(q.vec.length == d,
              s"query ${q.qid} has dimension ${q.vec.length}, not that of index ${index.name}, $d")
      var j = 0
      while (j < d && java.lang.Float.isFinite(q.vec(j))) j += 1
      require(j == d, s"query ${q.qid} has a non-finite component, ${q.vec(j)} at $j")
      qids(qi) = q.qid; tids(qi) = q.templateId
      System.arraycopy(q.vec, 0, vecs, qi * d, d)
      qi += 1
    }
    if (opts.exhaustive) return new Ranked(qids, tids, vecs, d, null, null, nq * index.leaves.map(_.size).sum)

    // Routes are per template, computed once here, unless they depend on
    // the query vector (centroid routing, m > 0). Queries of a routed set
    // are in CSR form, ascending.
    val routing = index.routing
    val numParts = index.numPartitions
    // Each query's routed set, numbered in order of first appearance.
    val setIds = mutable.HashMap.empty[Seq[Int], Int]
    def setId(parts: Seq[Int]): Int = setIds.getOrElseUpdate(parts, setIds.size)
    val setOf: Array[Int] =
      if (routing.perQuery) {
        val routes = new Array[Seq[Int]](nq)
        IntStream.range(0, nq).parallel().forEach { qi =>
          routes(qi) = routing.route(workload.templateById(tids(qi)).preds, Some(workload.queries(qi).vec), numParts)
        }
        routes.map(setId)
      } else {
        val byTemplate = workload.templates.map(t => t.id -> setId(routing.route(t.preds, None, numParts))).toMap
        tids.map(byTemplate)
      }
    val sets = new Array[Seq[Int]](setIds.size)
    setIds.foreach { case (parts, s) => sets(s) = parts }
    val (setOff, setQueries) = csr(setOf, sets.length, nq)

    // Each set's centroids as one block, in ascending cell index, as the
    // ranker's tie rule needs.
    val base = index.cellBase
    val blocks = sets.map { routed =>
      val parts = routed.sorted
      val ids = parts.iterator.flatMap(p => (base(p) until base(p + 1)).iterator.map(_.toLong)).toArray
      Block(ids, parts.iterator.flatMap(index.leaves(_).centroids).toArray, d)
    }
    var routedTuples = 0L
    for (s <- sets.indices)
      routedTuples += sets(s).iterator.map(index.leaves(_).size).sum * (setOff(s + 1) - setOff(s))

    val nprobe = new Array[Int](nq)
    val cellsOff = new Array[Int](nq + 1)
    var total = 0L
    qi = 0
    while (qi < nq) {
      nprobe(qi) = opts.nprobe.getOrElse(tids(qi), opts.defaultNprobe)
      total += math.min(nprobe(qi), blocks(setOf(qi)).n)
      require(total < Int.MaxValue, s"a pass of $nq queries probes more than ${Int.MaxValue} cells")
      cellsOff(qi + 1) = total.toInt
      qi += 1
    }
    val cells = new Array[Int](total.toInt)

    // Ranking is the planning hot loop: parallel over chunks of each set's
    // queries. `rankChunk` is the stream's consumer itself: behind a
    // wrapper lambda the JIT at times left it in profiled C1 code for a
    // whole run, and planning took 4× as long.
    val chunks = new mutable.ArrayBuilder.ofInt
    for (s <- sets.indices; from <- setOff(s) until setOff(s + 1) by Chunk) chunks += s += from
    val chunk = chunks.result()
    val rankers = ThreadLocal.withInitial(() => new CellRanker)
    val rankChunk: java.util.function.IntConsumer = { c =>
      val s = chunk(2 * c); val from = chunk(2 * c + 1)
      rankers.get().rank(blocks(s), vecs, d, setQueries, from, math.min(from + Chunk, setOff(s + 1)),
                         nprobe, cells, cellsOff)
    }
    IntStream.range(0, chunk.length / 2).parallel().forEach(rankChunk)
    new Ranked(qids, tids, vecs, d, cellsOff, cells, routedTuples)
  }

  /** The CSR probe table `(cellOff, cellQueries)` over `nCells` dense
    * cells: each cell's queries ordered by template (in `templates`
    * order), then by query index, so a task scans template runs. For an
    * exhaustive pass it is `(null, every query in that order)`.
    */
  def probeTable(r: Ranked, nCells: Int, templates: Seq[Template]): (Array[Int], Array[Int]) = {
    val tIdx = templates.iterator.map(_.id).zipWithIndex.toMap
    val byTemplate = csr(r.tids.map(tIdx), templates.length, r.tids.length)._2
    if (r.cells == null) return (null, byTemplate)
    val cellOff = new Array[Int](nCells + 1)
    var i = 0
    while (i < r.cells.length) { cellOff(r.cells(i) + 1) += 1; i += 1 }
    var c = 0
    while (c < nCells) { cellOff(c + 1) += cellOff(c); c += 1 }
    val fill = java.util.Arrays.copyOf(cellOff, nCells)
    val cellQueries = new Array[Int](r.cells.length)
    for (qi <- byTemplate) {
      var j = r.cellsOff(qi)
      while (j < r.cellsOff(qi + 1)) {
        val cell = r.cells(j)
        cellQueries(fill(cell)) = qi; fill(cell) += 1
        j += 1
      }
    }
    (cellOff, cellQueries)
  }

  /** Counting sort of `0 until n` by `key` (in `0 until numKeys`): the
    * offsets of each key's run, and the indices, ascending within a run.
    */
  private def csr(key: Array[Int], numKeys: Int, n: Int): (Array[Int], Array[Int]) = {
    val off = new Array[Int](numKeys + 1)
    var i = 0
    while (i < n) { off(key(i) + 1) += 1; i += 1 }
    var k = 0
    while (k < numKeys) { off(k + 1) += off(k); k += 1 }
    val fill = java.util.Arrays.copyOf(off, numKeys)
    val out = new Array[Int](n)
    i = 0
    while (i < n) { out(fill(key(i))) = i; fill(key(i)) += 1; i += 1 }
    (off, out)
  }
}
