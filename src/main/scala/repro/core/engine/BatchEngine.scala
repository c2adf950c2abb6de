package repro.core.engine

import org.apache.spark.rdd.RDD
import org.apache.spark.sql.DataFrame

import scala.collection.mutable

import repro.core.ivf.IVF
import repro.core.qdtree.Pred
import repro.core.vec.{BatchScorer, Block, Metric, TopK}
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
  *                        share the bitmap across its queries; off = each
  *                        query re-evaluates the filter (the "No batching"
  *                        baseline of Fig. 7c)
  * @param postFilter      Strategy D: ignore filters during the scan, keep
  *                        `k × postFilterExpansion` candidates, filter after
  * @param eagerBitmap     Strategy B bitmap construction: evaluate every
  *                        template's filter over every local tuple up front
  *                        (full-dataset bitmaps), instead of lazily only in
  *                        probed cells
  * @param exhaustive      Strategy A: visit every cell of every partition
  *                        regardless of routing — exact results, used as
  *                        ground truth
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

/** Work counters for one batch pass.
  *
  * @param tuplesScanned  posting-list entries visited, summed per query (the
  *                       paper's "number of tuples scanned")
  * @param distComps      vector score computations performed
  * @param filterRows     tuple-level predicate evaluations performed
  * @param routedTuples   Σ over queries of the sizes of partitions routed to
  *                       (the pruning-power numerator of Fig. 5)
  */
final case class EngineMetrics(tuplesScanned: Long,
                               distComps: Long,
                               filterRows: Long,
                               routedTuples: Long,
                               wallMillis: Long)

/** Result of a batch pass: per query, the top-k `(id, score)` best-first. */
final case class EngineRun(results: Map[Long, Array[(Long, Float)]], metrics: EngineMetrics)

object BatchEngine {

  /** Serializable plan shipped to executors. Probe keys pack (part, cell). */
  private final case class ExecPlan(queryTids: Array[Int],
                                    queryVecs: Array[Array[Float]],
                                    templates: Map[Int, Seq[Pred]],
                                    probes: Map[Long, Array[Int]],
                                    metric: Metric,
                                    opts: EngineOptions)

  /** One task's output: its per-query heaps flattened into parallel arrays of
    * (query index, score, id, whether the id satisfies the query's template),
    * plus the task's work counters. Returned as the task result, so each
    * counter is added exactly once per partition.
    */
  private final case class TaskResult(qis: Array[Int], scores: Array[Float], ids: Array[Long],
                                      matches: Array[Boolean],
                                      tuplesScanned: Long, distComps: Long, filterRows: Long)

  private[engine] def key(part: Int, cell: Int): Long = (part.toLong << 32) | (cell.toLong & 0xffffffffL)

  /** Execute a hybrid-query workload against a partitioned index in one
    * distributed pass, per Algorithm 3: one Spark job scans every partition
    * and the driver merges the per-task heaps into one top-k per query.
    * The workload's metric must be the index's: candidates are scored with
    * it.
    */
  def run(index: PartitionedIndex, workload: Workload, opts: EngineOptions): EngineRun = {
    require(workload.metric == index.metric,
            s"workload metric ${workload.metric.name} does not match the metric of index " +
            s"${index.name}, ${index.metric.name}")
    val t0 = System.currentTimeMillis()
    val sc = index.cells.sparkContext

    // ---- Driver planning: route queries to partitions, pick probe cells. ----
    val nq = workload.queries.length
    val qQids = new Array[Long](nq)
    val qTids = new Array[Int](nq)
    val qVecs = new Array[Array[Float]](nq)
    var routedTuples = 0L
    val probes = mutable.HashMap.empty[Long, mutable.ArrayBuilder.ofInt]
    // Routes are per template, computed once here, unless they depend on the
    // query vector (centroid routing, m > 0). An exhaustive pass visits every
    // partition.
    val routing = if (opts.exhaustive) Routing.All else index.routing
    val perQuery = routing.perQuery
    val templateRoutes: Map[Int, Seq[Int]] =
      workload.templates.map(t => t.id -> routing.route(t.preds, None, index.numPartitions)).toMap

    // Per-query probe selection. nprobe counts cells *globally across the
    // query's routed partitions*, ranked by centroid distance — per-partition
    // IVFs behave as one IVF over the union of their centroids, which keeps
    // nprobe semantics comparable across single- and multi-partition layouts.
    val perQueryCells = new Array[Array[Long]](nq)
    val routedSizes = new Array[Long](nq)
    val centroidBlocks = index.centroidBlocks
    val scorers = ThreadLocal.withInitial(() => new BatchScorer)
    val planQuery: java.util.function.IntConsumer = { qi =>
      val q = workload.queries(qi)
      qQids(qi) = q.qid; qTids(qi) = q.templateId; qVecs(qi) = q.vec
      val routed: Seq[Int] =
        if (perQuery) index.route(workload.templateById(q.templateId), q.vec) else templateRoutes(q.templateId)
      routedSizes(qi) = routed.iterator.map(index.leafById(_).size).sum
      if (opts.exhaustive) {
        perQueryCells(qi) = routed.iterator.flatMap { part =>
          index.leafById(part).centroids.indices.iterator.map(c => key(part, c))
        }.toArray
      } else {
        val np = opts.nprobe.getOrElse(q.templateId, opts.defaultNprobe)
        val heap = new TopK(np)
        val scorer = scorers.get()
        val qv = Array(q.vec)
        for (part <- routed) {
          val cents = centroidBlocks(part)
          scorer.push(heap, scorer.scores(qv, cents, IVF.AssignMetric), 0, cents)
        }
        perQueryCells(qi) = Array.tabulate(heap.size)(heap.idAt)
      }
    }
    // Cell ranking over routed partitions is the planning hot loop —
    // parallelize it across the driver's cores. `planQuery` is the stream's
    // consumer itself: behind a wrapper lambda the JIT at times left it in
    // profiled C1 code for a whole run, and planning took 4× as long.
    java.util.stream.IntStream.range(0, nq).parallel().forEach(planQuery)

    var qi = 0
    while (qi < nq) {
      routedTuples += routedSizes(qi)
      val cs = perQueryCells(qi)
      var ci = 0
      while (ci < cs.length) {
        probes.getOrElseUpdate(cs(ci), new mutable.ArrayBuilder.ofInt) += qi
        ci += 1
      }
      qi += 1
    }

    val plan = ExecPlan(
      qTids, qVecs,
      workload.templates.map(t => t.id -> t.preds).toMap,
      probes.iterator.map { case (k, b) => k -> b.result() }.toMap,
      index.metric, opts)
    val planB = sc.broadcast(plan)

    // ---- Distributed scan (Algorithm 3 per Spark partition), one job. ----
    val attrCols = index.attrCols
    val parts = index.cells.mapPartitions { it =>
      Iterator.single(scanPartition(it.next(), planB.value, attrCols))
    }.collect()

    // ---- Global top-k merge on the driver: one heap per query. ----
    // Strategy D keeps the global top-heapK first and filters afterwards, so
    // candidates failing their template only drop out after the merge.
    val heaps = new Array[TopK](nq)
    val rejected = mutable.HashSet.empty[(Int, Long)]
    for (p <- parts; i <- p.qis.indices) {
      val qi = p.qis(i)
      if (heaps(qi) == null) heaps(qi) = new TopK(opts.heapK)
      heaps(qi).push(p.scores(i), p.ids(i))
      if (!p.matches(i)) rejected += ((qi, p.ids(i)))
    }
    val results = (for {
      qi <- 0 until nq if heaps(qi) != null
      kept = heaps(qi).sorted.filterNot(c => rejected((qi, c._2))).take(opts.k)
      if kept.nonEmpty
    } yield qQids(qi) -> kept.map { case (score, id) => (id, score) }).toMap

    val wall = System.currentTimeMillis() - t0
    planB.destroy()
    EngineRun(results, EngineMetrics(parts.map(_.tuplesScanned).sum, parts.map(_.distComps).sum,
                                     parts.map(_.filterRows).sum, routedTuples, wall))
  }

  /** One IVF cell's posting list as resident in an index: its rows' ids and
    * vectors as one d-major [[Block]] (the only copy of the vectors), and
    * each row's attribute values.
    */
  private[engine] final class Cell(val block: Block, val attrs: Array[Array[Any]]) extends Serializable

  /** Decode an index layout's rows into its posting lists: per Spark
    * partition, one [[Cell]] per probe key `(__part, __cluster)` holding that
    * partition's rows of the cell, with the attributes in `attrCols` order.
    */
  private[engine] def decode(data: DataFrame, attrCols: Seq[String]): RDD[mutable.HashMap[Long, Cell]] = {
    val schema = data.schema
    val idIdx = schema.fieldIndex("id")
    val vecIdx = schema.fieldIndex("vec")
    val partIdx = schema.fieldIndex(IndexBuilder.PartCol)
    val clusterIdx = schema.fieldIndex(IndexBuilder.ClusterCol)
    val rowIdx: Array[Int] = attrCols.map(schema.fieldIndex).toArray
    data.rdd.mapPartitions { rows =>
      val built = mutable.HashMap.empty[Long, mutable.ArrayBuffer[(Long, Array[Float], Array[Any])]]
      rows.foreach { r =>
        val k = key(r.getInt(partIdx), r.getInt(clusterIdx))
        val attrs = new Array[Any](rowIdx.length)
        var i = 0
        while (i < rowIdx.length) {
          attrs(i) = if (r.isNullAt(rowIdx(i))) null else r.get(rowIdx(i))
          i += 1
        }
        built.getOrElseUpdate(k, mutable.ArrayBuffer.empty) +=
          ((r.getLong(idIdx), r.getSeq[Float](vecIdx).toArray, attrs))
      }
      Iterator.single(built.map { case (k, b) =>
        k -> new Cell(Block(b.map(_._1).toArray, b.map(_._2).toArray, b.head._2.length), b.map(_._3).toArray)
      })
    }
  }

  /** Per-Spark-partition execution over the partition's decoded posting
    * lists: evaluate each (filter, cell) query group — one filter pass
    * (bitmap) and one batched score kernel per group.
    */
  private def scanPartition(cells: mutable.HashMap[Long, Cell], plan: ExecPlan,
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

    def evalFilter(preds: Array[(Pred, Int)], cell: Cell): Array[Boolean] = {
      filterRows += cell.attrs.length
      cell.attrs.map(matches(preds, _))
    }

    // Strategy B's full-dataset bitmap construction: every template's filter
    // over every local tuple, up front.
    val eagerMasks: Map[(Long, Int), Array[Boolean]] =
      if (!plan.opts.eagerBitmap) Map.empty
      else (for {
        (ck, cell) <- cells.iterator
        (tid, preds) <- compiled.iterator
      } yield (ck, tid) -> evalFilter(preds, cell)).toMap

    val heaps = new Array[TopK](plan.queryTids.length)
    def heapOf(qi: Int): TopK = {
      if (heaps(qi) == null) heaps(qi) = new TopK(plan.opts.heapK)
      heaps(qi)
    }
    val scorer = new BatchScorer
    var survivors = new Array[Int](0)

    for ((ck, cell) <- cells; qidxs <- plan.probes.get(ck)) {
      val block = cell.block
      val byTemplate = qidxs.groupBy(plan.queryTids(_))
      for ((tid, qs) <- byTemplate) {
        tuplesScanned += block.n.toLong * qs.length
        val mask: Array[Boolean] =
          if (plan.opts.postFilter) null
          else if (plan.opts.eagerBitmap) eagerMasks((ck, tid))
          else if (plan.opts.attrBatching) evalFilter(compiled(tid), cell)
          else {
            // No attribute batching: each query pays its own filter pass.
            var m: Array[Boolean] = null
            qs.foreach(_ => m = evalFilter(compiled(tid), cell))
            m
          }
        // The candidates are the posting list ∩ filter bitmap (§4.2
        // pushdown): the cell's block itself when every row passes, else
        // the surviving rows gathered into a scratch block.
        var count = 0
        if (mask != null) {
          if (survivors.length < block.n) survivors = new Array[Int](block.n)
          var i = 0
          while (i < block.n) { if (mask(i)) { survivors(count) = i; count += 1 }; i += 1 }
        }
        val cand = if (mask == null || count == block.n) block else scorer.gather(block, survivors, count)
        if (cand.n > 0) {
          distComps += cand.n.toLong * qs.length
          // Algorithm 3 scores the whole query group with one kernel call;
          // the per-query baseline (Strategies B/C/D) calls it once per
          // query, sharing no score pass across queries.
          val batches = if (plan.opts.vectorBatching) Iterator.single(qs) else qs.iterator.map(Array(_))
          for (batch <- batches) {
            val flat = scorer.scores(batch.map(plan.queryVecs(_)), cand, plan.metric)
            var a = 0
            while (a < batch.length) { scorer.push(heapOf(batch(a)), flat, a * cand.stride, cand); a += 1 }
          }
        }
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
    val qis = new mutable.ArrayBuilder.ofInt
    val scores = new mutable.ArrayBuilder.ofFloat
    val ids = new mutable.ArrayBuilder.ofLong
    val matched = new mutable.ArrayBuilder.ofBoolean
    for (qi <- heaps.indices if heaps(qi) != null; h = heaps(qi); i <- 0 until h.size) {
      qis += qi; scores += h.scoreAt(i); ids += h.idAt(i)
      if (plan.opts.postFilter) filterRows += 1
      matched += !plan.opts.postFilter || matches(compiled(plan.queryTids(qi)), attrsById(h.idAt(i)))
    }
    TaskResult(qis.result(), scores.result(), ids.result(), matched.result(),
               tuplesScanned, distComps, filterRows)
  }
}
