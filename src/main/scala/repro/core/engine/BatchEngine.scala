package repro.core.engine

import org.apache.spark.rdd.RDD
import org.apache.spark.sql.DataFrame

import scala.collection.mutable

import repro.core.qdtree.Pred
import repro.core.vec.{BatchScorer, Block, TopK}
import repro.workload.Workload

/** Execution options for one batch pass (Algorithm 3 plus the §2.2 baseline
  * behaviours, selected by flags).
  *
  * @param nprobe          per-template number of IVF cells scanned per
  *                        partition (tuned per template, §6.1); missing
  *                        templates fall back to `defaultNprobe`
  * @param vectorBatching  group queries by probed cell and score each
  *                        (filter, cell) group with one batched kernel
  *                        (§5); off = per-query scans
  * @param attrBatching    evaluate each template's filter once per cell and
  *                        share its surviving rows across its queries; off =
  *                        each query re-evaluates the filter (the "No
  *                        batching" baseline of Fig. 7c)
  * @param postFilter      Strategy D: ignore filters during the scan, keep
  *                        `k × postFilterExpansion` candidates, filter after
  * @param eagerBitmap     Strategy B bitmap construction: evaluate the
  *                        filter of every template the pass has queries of
  *                        over every local tuple up front (full-dataset
  *                        bitmaps), instead of lazily only in probed cells
  * @param exhaustive      Strategy A: every query scans every cell of every
  *                        partition, with no routing, ranking or probe table
  *                        — exact results, used as ground truth
  */
final case class EngineOptions(k: Int = 10,
                               nprobe: Map[Int, Int] = Map.empty,
                               defaultNprobe: Int = 8,
                               vectorBatching: Boolean = true,
                               attrBatching: Boolean = true,
                               postFilter: Boolean = false,
                               postFilterExpansion: Int = 4,
                               eagerBitmap: Boolean = false,
                               exhaustive: Boolean = false) {
  require(k >= 1, s"k must be at least 1, got $k")
  require(defaultNprobe >= 1, s"defaultNprobe must be at least 1, got $defaultNprobe")
  require(nprobe.values.forall(_ >= 1), s"every nprobe must be at least 1, got $nprobe")
  require(postFilterExpansion >= 1, s"postFilterExpansion must be at least 1, got $postFilterExpansion")

  def heapK: Int = if (postFilter) k * postFilterExpansion else k
}

/** Wall time of each phase of a batch pass, in ms: successive laps of one
  * monotonic clock, so they sum to [[EngineMetrics.wallMillis]].
  *
  * @param rankMs      routing every query and ranking its cells (driver)
  * @param probesMs    building the probe table (driver)
  * @param broadcastMs broadcasting the plan (driver)
  * @param jobMs       the Spark job: every task's scan, and collecting its
  *                    result
  * @param mergeMs     the global top-k merge (driver)
  * @param resultsMs   building [[EngineRun.results]] and the counters
  *                    (driver)
  */
final case class PassPhases(rankMs: Double, probesMs: Double, broadcastMs: Double,
                            jobMs: Double, mergeMs: Double, resultsMs: Double) {
  def describe: String =
    f"rank=$rankMs%.1f probes=$probesMs%.1f broadcast=$broadcastMs%.1f job=$jobMs%.1f " +
    f"merge=$mergeMs%.1f results=$resultsMs%.1f ms"
}

/** Work counters and timings for one batch pass.
  *
  * @param tuplesScanned  posting-list entries visited, summed per query (the
  *                       paper's "number of tuples scanned")
  * @param distComps      vector score computations performed
  * @param filterRows     tuple-level predicate evaluations performed
  * @param routedTuples   Σ over queries of the sizes of partitions routed to
  *                       (the pruning-power numerator of Fig. 5)
  * @param wallMillis     the pass's wall time, from `System.nanoTime`
  * @param phases         `wallMillis` split into the pass's phases
  */
final case class EngineMetrics(tuplesScanned: Long,
                               distComps: Long,
                               filterRows: Long,
                               routedTuples: Long,
                               wallMillis: Double,
                               phases: PassPhases)

/** Result of a batch pass: per query, the top-k `(id, score)` best-first. */
final case class EngineRun(results: Map[Long, Array[(Long, Float)]], metrics: EngineMetrics)

object BatchEngine {

  /** One task's output: its per-query heaps flattened into parallel arrays of
    * (score, id, whether the id satisfies the query's template), by query in
    * CSR form — query `q`'s entries are `qOff(q) until qOff(q + 1)` — plus
    * the task's work counters. Returned as the task result, so each counter
    * is added exactly once per partition.
    */
  private final case class TaskResult(qOff: Array[Int], scores: Array[Float], ids: Array[Long],
                                      matches: Array[Boolean],
                                      tuplesScanned: Long, distComps: Long, filterRows: Long)

  /** Each partition's first dense cell index: partition `p`'s cell `c` is
    * dense cell `cellBase(p) + c`, and `cellBase(leaves.length)` counts
    * every cell. Dense indices order cells as `(partition, cell)` does.
    */
  private[engine] def cellBase(leaves: Array[LeafMeta]): Array[Int] = leaves.scanLeft(0)(_ + _.centroids.length)

  /** Execute a hybrid-query workload against a partitioned index in one
    * distributed pass, per Algorithm 3: the driver plans the pass as
    * primitive arrays ([[PassPlan]]), one Spark job scans every partition,
    * and the driver merges the per-task heaps into one top-k per query.
    * The workload's metric must be the index's: candidates are scored with
    * it. Every query vector must have the index's dimension and only finite
    * components.
    */
  def run(index: PartitionedIndex, workload: Workload, opts: EngineOptions): EngineRun = {
    require(workload.metric == index.metric,
            s"workload metric ${workload.metric.name} does not match the metric of index " +
            s"${index.name}, ${index.metric.name}")
    val laps = new Laps

    // ---- Driver planning: route queries, rank cells, build the probe table. ----
    val ranked = PassPlan.rank(index, workload, opts)
    val rankMs = laps.lap()
    val (cellOff, cellQueries) = PassPlan.probeTable(ranked, index.cellBase(index.numPartitions), workload.templates)
    val probesMs = laps.lap()
    // The plan carries only the templates that have queries: a task filters
    // by each (eagerly, for Strategy B, over every row).
    val planB = index.cells.sparkContext.broadcast(ExecPlan(
      ranked.tids, ranked.vecs, ranked.d,
      workload.queries.map(q => q.templateId -> workload.templateById(q.templateId).preds).toMap,
      cellOff, cellQueries, index.metric, opts))
    try {
      val broadcastMs = laps.lap()

      // ---- Distributed scan (Algorithm 3 per Spark partition), one job. ----
      val attrCols = index.attrCols
      val parts = index.cells.mapPartitions { it =>
        Iterator.single(scanPartition(it.next(), planB.value, attrCols))
      }.collect()
      val jobMs = laps.lap()

      // ---- Global top-k merge on the driver. ----
      val nq = ranked.tids.length
      val k = opts.k
      val kept = new Array[Int](nq)
      val keptIds = new Array[Long](nq * k)
      val keptScores = new Array[Float](nq * k)
      val mergeChunk: java.util.function.IntConsumer = { ch =>
        merge(parts, ch * MergeChunk, math.min(nq, (ch + 1) * MergeChunk), opts, kept, keptIds, keptScores)
      }
      java.util.stream.IntStream.range(0, (nq + MergeChunk - 1) / MergeChunk).parallel().forEach(mergeChunk)
      val mergeMs = laps.lap()

      val results = Map.newBuilder[Long, Array[(Long, Float)]]
      var qi = 0
      while (qi < nq) {
        if (kept(qi) > 0)
          results += ranked.qids(qi) -> Array.tabulate(kept(qi))(i => (keptIds(qi * k + i), keptScores(qi * k + i)))
        qi += 1
      }
      val run = results.result()
      val counters = (parts.map(_.tuplesScanned).sum, parts.map(_.distComps).sum, parts.map(_.filterRows).sum)
      val resultsMs = laps.lap()
      EngineRun(run, EngineMetrics(counters._1, counters._2, counters._3, ranked.routedTuples, laps.total,
                                   PassPhases(rankMs, probesMs, broadcastMs, jobMs, mergeMs, resultsMs)))
    } finally planB.destroy()
  }

  /** Queries per parallel task of the merge. */
  private val MergeChunk = 512

  /** The global top-k of queries `lo until hi`: query `q` keeps
    * `kept(q)` results, best-first at `keptIds`/`keptScores` from `q * k`.
    * Each query's range of entries from every task is copied to one scratch
    * run, whose best heapK are sorted to its front. Strategy D keeps the
    * global top-heapK first and filters afterwards, so candidates failing
    * their template only drop out here.
    */
  private def merge(parts: Array[TaskResult], lo: Int, hi: Int, opts: EngineOptions,
                    kept: Array[Int], keptIds: Array[Long], keptScores: Array[Float]): Unit = {
    val k = opts.k
    val cap = parts.length * opts.heapK
    val scores = new Array[Float](cap)
    val ids = new Array[Long](cap)
    val matches = new Array[Boolean](cap)
    var qi = lo
    while (qi < hi) {
      var m = 0
      for (p <- parts) {
        val from = p.qOff(qi); val n = p.qOff(qi + 1) - from
        System.arraycopy(p.scores, from, scores, m, n)
        System.arraycopy(p.ids, from, ids, m, n)
        System.arraycopy(p.matches, from, matches, m, n)
        m += n
      }
      TopK.sort(scores, ids, matches, 0, m, opts.heapK)
      var i = 0
      while (i < math.min(m, opts.heapK) && kept(qi) < k) {
        if (matches(i)) {
          keptIds(qi * k + kept(qi)) = ids(i); keptScores(qi * k + kept(qi)) = scores(i)
          kept(qi) += 1
        }
        i += 1
      }
      qi += 1
    }
  }

  /** One IVF cell's posting list as resident in an index: its rows' ids and
    * vectors as one d-major [[Block]] (the only copy of the vectors), and
    * each row's attribute values.
    */
  private[engine] final class Cell(val block: Block, val attrs: Array[Array[Any]]) extends Serializable

  /** Decode an index layout's rows into its posting lists: the rows are
    * repartitioned by `(__part, __cluster)` over the default parallelism,
    * and each Spark partition gets one [[Cell]] per dense cell index
    * (`cellBase(__part) + __cluster`) holding its rows of the cell, with the
    * attributes in `attrCols` order.
    */
  private[engine] def decode(data: DataFrame, attrCols: Seq[String],
                             cellBase: Array[Int]): RDD[mutable.HashMap[Int, Cell]] = {
    val schema = data.schema
    val idIdx = schema.fieldIndex("id")
    val vecIdx = schema.fieldIndex("vec")
    val partIdx = schema.fieldIndex(IndexBuilder.PartCol)
    val clusterIdx = schema.fieldIndex(IndexBuilder.ClusterCol)
    val rowIdx: Array[Int] = attrCols.map(schema.fieldIndex).toArray
    data.repartition(data.sparkSession.sparkContext.defaultParallelism, data(IndexBuilder.PartCol),
                     data(IndexBuilder.ClusterCol)).rdd.mapPartitions { rows =>
      val built = mutable.HashMap.empty[Int, mutable.ArrayBuffer[(Long, Array[Float], Array[Any])]]
      rows.foreach { r =>
        val cell = cellBase(r.getInt(partIdx)) + r.getInt(clusterIdx)
        val attrs = new Array[Any](rowIdx.length)
        var i = 0
        while (i < rowIdx.length) {
          attrs(i) = if (r.isNullAt(rowIdx(i))) null else r.get(rowIdx(i))
          i += 1
        }
        built.getOrElseUpdate(cell, mutable.ArrayBuffer.empty) +=
          ((r.getLong(idIdx), r.getSeq[Float](vecIdx).toArray, attrs))
      }
      Iterator.single(built.map { case (k, b) =>
        k -> new Cell(Block(b.map(_._1).toArray, b.map(_._2).toArray, b.head._2.length), b.map(_._3).toArray)
      })
    }
  }

  /** Per-Spark-partition execution over the partition's decoded posting
    * lists: evaluate each (filter, cell) query group — one filter pass
    * (its surviving rows) and one batched score kernel per group. A cell's
    * queries come from the plan's probe table already grouped by template;
    * without a table (an exhaustive pass) they are every query.
    */
  private def scanPartition(cells: mutable.HashMap[Int, Cell], plan: ExecPlan,
                            attrCols: Seq[String]): TaskResult = {
    var tuplesScanned = 0L; var distComps = 0L; var filterRows = 0L
    // Compile each template's predicates against positions in the per-row
    // attribute array, so filter evaluation is array indexing, not map
    // lookups, on the hot path.
    val attrPos: Map[String, Int] = attrCols.zipWithIndex.toMap
    val compiled: Map[Int, Array[(Pred, Int)]] = plan.templates.map { case (tid, preds) =>
      tid -> preds.map(p => (p, attrPos.getOrElse(p.attr, -1))).toArray
    }

    def matches(preds: Array[(Pred, Int)], attrs: Array[Any]): Boolean = {
      var ok = true
      var p = 0
      while (ok && p < preds.length) {
        val (pred, pos) = preds(p)
        ok = pred.evalValue(if (pos >= 0) attrs(pos) else null)
        p += 1
      }
      ok
    }

    /** Writes the rows of `cell` that pass `preds` to `rows` from 0 on;
      * returns how many passed.
      */
    def evalFilter(preds: Array[(Pred, Int)], cell: Cell, rows: Array[Int]): Int = {
      filterRows += cell.attrs.length
      var count = 0
      var i = 0
      while (i < cell.attrs.length) { if (matches(preds, cell.attrs(i))) { rows(count) = i; count += 1 }; i += 1 }
      count
    }

    // Strategy B's full-dataset bitmap construction: the filter of every
    // template in the plan over every local tuple, up front, kept as each
    // (cell, template)'s surviving rows.
    val eagerRows: Map[(Int, Int), Array[Int]] =
      if (!plan.opts.eagerBitmap) Map.empty
      else (for {
        (c, cell) <- cells.iterator
        (tid, preds) <- compiled.iterator
      } yield {
        val rows = new Array[Int](cell.attrs.length)
        (c, tid) -> java.util.Arrays.copyOf(rows, evalFilter(preds, cell, rows))
      }).toMap

    val heaps = new Array[TopK](plan.queryTids.length)
    def heapOf(qi: Int): TopK = {
      if (heaps(qi) == null) heaps(qi) = new TopK(plan.opts.heapK)
      heaps(qi)
    }
    val scorer = new BatchScorer
    var survivors = new Array[Int](0)
    val qs = plan.cellQueries

    for ((c, cell) <- cells) {
      val block = cell.block
      val last = if (plan.cellOff == null) qs.length else plan.cellOff(c + 1)
      var from = if (plan.cellOff == null) 0 else plan.cellOff(c)
      while (from < last) {
        // The run [from, until) of this cell's queries with template `tid`.
        val tid = plan.queryTids(qs(from))
        var until = from + 1
        while (until < last && plan.queryTids(qs(until)) == tid) until += 1
        val group = until - from
        tuplesScanned += block.n.toLong * group
        // The candidates are the posting list ∩ filter (§4.2 pushdown), as
        // the `count` rows of `rows`: PostFilter takes every row.
        if (survivors.length < block.n) survivors = new Array[Int](block.n)
        var rows = survivors
        val count =
          if (plan.opts.postFilter) block.n
          else if (plan.opts.eagerBitmap) { rows = eagerRows((c, tid)); rows.length }
          else {
            // No attribute batching: each query pays its own filter pass.
            var passed = 0
            for (_ <- 0 until (if (plan.opts.attrBatching) 1 else group))
              passed = evalFilter(compiled(tid), cell, survivors)
            passed
          }
        // The cell's block itself when every row passes, else the surviving
        // rows gathered into a scratch block.
        val cand = if (count == block.n) block else scorer.gather(block, rows, count)
        if (cand.n > 0) {
          distComps += cand.n.toLong * group
          // Algorithm 3 scores the whole query group with one kernel call;
          // the per-query baseline (Strategies B/C/D) calls it once per
          // query, sharing no score pass across queries.
          val batch = if (plan.opts.vectorBatching) group else 1
          var b = from
          while (b < until) {
            val end = b + batch
            val flat = scorer.scores(plan.queryVecs, plan.d, qs, b, end, cand, plan.metric)
            var a = b
            while (a < end) { scorer.push(heapOf(qs(a)), flat, (a - b) * cand.stride, cand); a += 1 }
            b = end
          }
        }
        from = until
      }
    }

    // Heaps go out unsorted: the driver merges them again. PostFilter tags
    // each survivor with its template match for the driver, one counted
    // filter check per entry; under pushdown every heap entry already passed
    // the filter.
    lazy val attrsById = {
      val m = mutable.LongMap.empty[Array[Any]]
      for (cell <- cells.valuesIterator; j <- 0 until cell.block.n) m(cell.block.ids(j)) = cell.attrs(j)
      m
    }
    val qOff = new Array[Int](heaps.length + 1)
    for (qi <- heaps.indices) qOff(qi + 1) = qOff(qi) + (if (heaps(qi) == null) 0 else heaps(qi).size)
    val entries = qOff(heaps.length)
    val scores = new Array[Float](entries)
    val ids = new Array[Long](entries)
    val matched = new Array[Boolean](entries)
    for (qi <- heaps.indices if heaps(qi) != null; h = heaps(qi); i <- 0 until h.size) {
      val e = qOff(qi) + i
      scores(e) = h.scoreAt(i); ids(e) = h.idAt(i)
      matched(e) = !plan.opts.postFilter || matches(compiled(plan.queryTids(qi)), attrsById(h.idAt(i)))
    }
    if (plan.opts.postFilter) filterRows += entries
    TaskResult(qOff, scores, ids, matched, tuplesScanned, distComps, filterRows)
  }
}
