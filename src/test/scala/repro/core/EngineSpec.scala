package repro.core

import org.apache.spark.SparkEnv
import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.storage.BroadcastBlockId
import org.scalatest.concurrent.Eventually._
import org.scalatest.time.{Seconds, Span}

import repro.SparkSpec
import repro.core.engine._
import repro.core.qdtree.Pred
import repro.core.vec.Metric
import repro.harness.Strategy
import repro.workload.{HybridQuery, KGData, Template, Templates, Workload}

/** Shared small-scale fixtures: one KG database and its indexes, built once
  * per test run (building indexes is the expensive part).
  */
object EngineFixtures {
  val N = 4000L
  val D = 8

  private var _db: DataFrame = _
  private var _history: Workload = _
  private var _hqi: PartitionedIndex = _
  private var _flat: PartitionedIndex = _

  def db(spec: SparkSpec): DataFrame = synchronized {
    if (_db == null) { _db = KGData.entities(spec.spark, N, D).cache(); _db.count() }
    _db
  }

  def history(spec: SparkSpec): Workload = synchronized {
    if (_history == null) _history = Templates.relatedQSWorkload(db(spec), split = 0, numQueries = 120)
    _history
  }

  def hqi(spec: SparkSpec): PartitionedIndex = synchronized {
    if (_hqi == null)
      _hqi = IndexBuilder.buildHQI(db(spec), KGData.AttrCols, Metric.IP, history(spec),
                                   HQIOptions(minSize = 256))
    _hqi
  }

  def flat(spec: SparkSpec): PartitionedIndex = synchronized {
    if (_flat == null) _flat = IndexBuilder.buildFlat(db(spec), KGData.AttrCols, Metric.IP)
    _flat
  }

  /** A table whose string attribute `genre` holds `a`, `b` and `a,b`, with a
    * history of the templates `genre IN ('a,b')` and `genre IN ('a', 'b')`,
    * whose predicates display alike.
    */
  def alikeTable(spark: SparkSession): (DataFrame, Workload) = {
    import spark.implicits._
    val rnd = new scala.util.Random(5)
    val db = (0 until 600).map(i => (i.toLong, Array.fill(4)(rnd.nextFloat()), Seq("a", "b", "a,b")(i % 3)))
      .toDF("id", "vec", "genre")
    val templates = Seq(Template(1, "comma", Seq(Pred.In("genre", Set("a,b")))),
                        Template(2, "pair", Seq(Pred.In("genre", Set("a", "b")))))
    val queries = (0 until 40).map(q => HybridQuery(q.toLong, 1 + q % 2, Array.fill(4)(rnd.nextFloat())))
    (db, Workload(templates, queries, 10, Metric.IP))
  }

  /** Exhaustive ground truth over `w` using any index (layout-independent). */
  def truth(spec: SparkSpec, w: Workload): Map[Long, Array[(Long, Float)]] =
    BatchEngine.run(flat(spec), w, EngineOptions(k = w.k, exhaustive = true)).results
}

class EngineSpec extends SparkSpec {
  import EngineFixtures._

  private lazy val workload = history(this)
  private lazy val gt = truth(this, workload)
  private lazy val matchIds: Map[Int, Set[Long]] = workload.templates.map { t =>
    t.id -> db(this).filter(Pred.and(t.preds)).select("id").collect().map(_.getLong(0)).toSet
  }.toMap

  test("exhaustive run returns at most k results per query, sorted best-first") {
    assert(gt.nonEmpty)
    gt.values.foreach { rs =>
      assert(rs.length <= workload.k)
      assert(rs.sortBy(t => (t._2, t._1)).sameElements(rs))
    }
  }

  test("exhaustive results satisfy their query's attribute constraint") {
    for (q <- workload.queries; (id, _) <- gt.getOrElse(q.qid, Array.empty)) {
      assert(matchIds(q.templateId).contains(id),
             s"query ${q.qid} (template ${q.templateId}) returned non-matching id $id")
    }
  }

  test("exhaustive results are identical across different index layouts") {
    val viaHqi = BatchEngine.run(hqi(this), workload, EngineOptions(k = workload.k, exhaustive = true)).results
    assert(viaHqi.keySet == gt.keySet)
    for ((qid, rs) <- gt) assert(viaHqi(qid).map(_._1).sameElements(rs.map(_._1)), s"qid $qid differs")
  }

  test("an exhaustive pass scans every row once per query") {
    // Each query meets each row once: no (query, cell) is dropped or
    // repeated. Filters run once per (cell, template with queries), and
    // every row passing a query's template is scored for it.
    val nq = workload.size.toLong
    val templates = workload.queries.map(_.templateId).distinct.size
    val matching = workload.queries.map(q => matchIds(q.templateId).size.toLong).sum
    for (index <- Seq(hqi(this), flat(this))) {
      val m = BatchEngine.run(index, workload, EngineOptions(k = workload.k, exhaustive = true)).metrics
      assert(m.tuplesScanned == nq * N && m.routedTuples == nq * N, s"${index.name}: $m")
      assert(m.filterRows == N * templates, s"${index.name}: $m")
      assert(m.distComps == matching, s"${index.name}: $m vs $matching matching (query, row) pairs")
    }
  }

  test("HQI with exhaustive per-partition probing equals ground truth (routing is safe at m=0)") {
    // Probe every cell but keep qd-tree routing: with m = 0 routing must
    // never lose a satisfying tuple, so results are exact.
    val maxCells = hqi(this).leaves.map(_.centroids.length).sum
    val run = BatchEngine.run(hqi(this), workload,
      EngineOptions(k = workload.k, defaultNprobe = maxCells))
    for ((qid, rs) <- gt)
      assert(run.results.getOrElse(qid, Array.empty).map(_._1).sameElements(rs.map(_._1)),
             s"qid $qid differs")
  }

  test("vector batching on/off produce identical results") {
    val on = BatchEngine.run(flat(this), workload, EngineOptions(defaultNprobe = 8, vectorBatching = true))
    val off = BatchEngine.run(flat(this), workload, EngineOptions(defaultNprobe = 8, vectorBatching = false))
    assert(on.results.keySet == off.results.keySet)
    for ((qid, rs) <- on.results) assert(off.results(qid).sameElements(rs), s"qid $qid: ids or scores differ")
  }

  test("every (query, id) an HQI pass returns carries exactly Metric.score of the fixture vectors") {
    val vecs = db(this).select("id", "vec").collect().map(r => r.getLong(0) -> r.getSeq[Float](1).toArray).toMap
    for (batching <- Seq(true, false)) {
      val run = BatchEngine.run(hqi(this), workload, EngineOptions(defaultNprobe = 8, vectorBatching = batching))
      assert(run.results.nonEmpty)
      for (q <- workload.queries; (id, score) <- run.results.getOrElse(q.qid, Array.empty))
        assert(score == Metric.IP.score(q.vec, vecs(id)), s"batching=$batching qid ${q.qid} id $id")
    }
  }

  test("attribute batching on/off produce identical results but different filter work") {
    val on = BatchEngine.run(flat(this), workload, EngineOptions(defaultNprobe = 8, attrBatching = true))
    val off = BatchEngine.run(flat(this), workload, EngineOptions(defaultNprobe = 8, attrBatching = false))
    for ((qid, rs) <- on.results) assert(off.results(qid).map(_._1).sameElements(rs.map(_._1)))
    assert(off.metrics.filterRows > on.metrics.filterRows,
           "disabling attribute batching must repeat filter evaluations")
  }

  test("eager bitmap construction (Strategy B) produces identical results with more filter work") {
    val lazyRun = BatchEngine.run(flat(this), workload, EngineOptions(defaultNprobe = 8))
    val eager = BatchEngine.run(flat(this), workload, EngineOptions(defaultNprobe = 8, eagerBitmap = true))
    for ((qid, rs) <- lazyRun.results) assert(eager.results(qid).map(_._1).sameElements(rs.map(_._1)))
    assert(eager.metrics.filterRows >= lazyRun.metrics.filterRows)
    // Eager bitmaps touch every tuple once per template.
    assert(eager.metrics.filterRows >= N * workload.templates.size)
  }

  test("recall is monotone (non-decreasing) in nprobe") {
    val recalls = Seq(1, 4, 16, 64).map { np =>
      val run = BatchEngine.run(flat(this), workload, EngineOptions(defaultNprobe = np))
      Recall.overall(run.results, gt, workload.k)
    }
    recalls.sliding(2).foreach { case Seq(a, b) => assert(b >= a - 1e-9, s"recall dropped: $recalls") }
    assert(recalls.last >= 0.99, s"full-ish probing should be near-exact, got ${recalls.last}")
  }

  test("HQI scans fewer routed tuples than PreFilter for the same workload") {
    val h = BatchEngine.run(hqi(this), workload, EngineOptions(defaultNprobe = 4))
    val f = BatchEngine.run(flat(this), workload, EngineOptions(defaultNprobe = 4))
    assert(h.metrics.routedTuples < f.metrics.routedTuples,
           s"qd-tree routing should prune partitions: hqi=${h.metrics.routedTuples} flat=${f.metrics.routedTuples}")
  }

  test("HQI at m = 3 with every cell probed equals an exhaustive scan of each query's routed partitions") {
    // Centroid routing is per query, so each query is ranked in its own
    // routed set; probing every cell of it must give the exact top-k of
    // the matching tuples in the partitions it routes to.
    val idx = IndexBuilder.buildHQI(db(this), KGData.AttrCols, Metric.IP, workload, HQIOptions(minSize = 256, m = 3))
    try {
      val rows = idx.data.select("id", "vec", IndexBuilder.PartCol).collect()
        .map(r => (r.getLong(0), r.getSeq[Float](1).toArray, r.getInt(2)))
      val allCells = idx.leaves.map(_.centroids.length).sum
      val run = BatchEngine.run(idx, workload, EngineOptions(k = workload.k, defaultNprobe = allCells))
      var partial = 0
      for (q <- workload.queries) {
        val routed = idx.route(workload.templateById(q.templateId), q.vec).toSet
        if (routed.size < idx.numPartitions) partial += 1
        val want = rows.filter(r => routed(r._3) && matchIds(q.templateId)(r._1))
          .map { case (id, v, _) => (id, Metric.IP.score(q.vec, v)) }
          .sortBy(t => (t._2, t._1)).take(workload.k).toSeq
        assert(run.results.getOrElse(q.qid, Array.empty).toSeq == want, s"qid ${q.qid}")
      }
      assert(partial > 0, "some query should route to fewer than all partitions")
    } finally idx.unpersist()
  }

  test("pass phases are non-negative and sum to at most the pass's wall time") {
    for (opts <- Seq(EngineOptions(defaultNprobe = 4), EngineOptions(defaultNprobe = 4, postFilter = true),
                     EngineOptions(exhaustive = true))) {
      val m = BatchEngine.run(hqi(this), workload, opts).metrics
      val p = m.phases
      val all = Seq(p.rankMs, p.probesMs, p.broadcastMs, p.jobMs, p.mergeMs, p.resultsMs)
      assert(all.forall(_ >= 0), s"$p")
      // The phases are laps of the clock that times the pass; 1e-9 ms
      // covers the rounding of their sum.
      assert(all.sum <= m.wallMillis + 1e-9, s"$p vs ${m.wallMillis}")
    }
  }

  test("a pass leaves no broadcast behind but its job's task binary") {
    // Spark broadcasts each stage's serialized tasks and drops them only
    // after garbage collection, which may also drop older broadcasts at any
    // time; so the check is per pass: the plan's broadcast must be gone
    // (destroying it removes its blocks asynchronously). A first pass
    // re-caches the index if other suites evicted it, so that each checked
    // pass runs one stage.
    BatchEngine.run(hqi(this), workload, EngineOptions(defaultNprobe = 4))
    for (_ <- 0 until 3; opts <- Seq(EngineOptions(defaultNprobe = 4), EngineOptions(exhaustive = true))) {
      val before = broadcastIds
      BatchEngine.run(hqi(this), workload, opts)
      eventually(timeout(Span(5, Seconds))) {
        val added = broadcastIds -- before
        assert(added.size <= 1, s"broadcasts $added remain after one pass")
      }
    }
  }

  test("post-filtering (Strategy D) never returns non-matching tuples") {
    val run = BatchEngine.run(flat(this), workload,
      EngineOptions(defaultNprobe = 8, postFilter = true, postFilterExpansion = 4))
    for (q <- workload.queries; (id, _) <- run.results.getOrElse(q.qid, Array.empty))
      assert(matchIds(q.templateId).contains(id))
  }

  test("post-filtering counts one filter check per candidate its tasks emit") {
    val opts = EngineOptions(defaultNprobe = 8, postFilter = true, postFilterExpansion = 4)
    val run = BatchEngine.run(flat(this), workload, opts)
    // Each task emits at most heapK scored candidates per query.
    val emittedBound = math.min(run.metrics.distComps,
      workload.size.toLong * opts.heapK * flat(this).cells.getNumPartitions)
    assert(run.metrics.filterRows > 0)
    assert(run.metrics.filterRows <= emittedBound, s"${run.metrics} vs bound $emittedBound")
  }

  test("post-filtering achieves lower or equal recall than pushdown at equal nprobe") {
    val push = BatchEngine.run(flat(this), workload, EngineOptions(defaultNprobe = 4))
    val post = BatchEngine.run(flat(this), workload,
      EngineOptions(defaultNprobe = 4, postFilter = true, postFilterExpansion = 2))
    val rPush = Recall.overall(push.results, gt, workload.k)
    val rPost = Recall.overall(post.results, gt, workload.k)
    assert(rPost <= rPush + 0.05, s"post-filter recall $rPost should not beat pushdown $rPush")
  }

  test("counters: distance computations never exceed tuples scanned (pushdown)") {
    val run = BatchEngine.run(flat(this), workload, EngineOptions(defaultNprobe = 8))
    assert(run.metrics.distComps <= run.metrics.tuplesScanned)
    assert(run.metrics.tuplesScanned > 0)
  }

  test("results for a template matching zero tuples are empty, not an error") {
    // T1's selectivity target (0.005%) means zero matches at N=4000.
    val t1Count = db(this).filter(Pred.and(workload.templateById(1).preds)).count()
    if (t1Count == 0) {
      val w1 = workload.restrictedTo(Set(1))
      val run = BatchEngine.run(flat(this), w1, EngineOptions(defaultNprobe = 8))
      assert(run.results.values.forall(_.isEmpty) || run.results.isEmpty)
    }
  }

  test("engine results carry at most k entries per query under every strategy") {
    for (opts <- Seq(EngineOptions(defaultNprobe = 4),
                     EngineOptions(defaultNprobe = 4, postFilter = true),
                     EngineOptions(defaultNprobe = 4, vectorBatching = false))) {
      val run = BatchEngine.run(flat(this), workload, opts)
      run.results.values.foreach(rs => assert(rs.length <= workload.k))
    }
  }

  test("post-filtering with every cell probed equals its definition: top-k×expansion, filter, first k") {
    val k = workload.k
    val expansion = 2
    val rows = db(this).select("id", "vec").collect().map(r => (r.getLong(0), r.getSeq[Float](1).toArray))
    val expected: Map[Long, Seq[Long]] = workload.queries.flatMap { q =>
      val top = rows.map { case (id, v) => (Metric.IP.score(q.vec, v), id) }
        .sortBy(t => (t._1, t._2)).take(k * expansion)
      val kept = top.map(_._2).filter(matchIds(q.templateId)).take(k)
      if (kept.isEmpty) None else Some(q.qid -> kept.toSeq)
    }.toMap
    assert(expected.size < workload.size, "some query should have no post-filter survivors")

    val allCells = flat(this).leaves.map(_.centroids.length).sum
    val run = BatchEngine.run(flat(this), workload, Strategy.PostFilter.opts
      .copy(defaultNprobe = allCells, postFilterExpansion = expansion))
    assert(run.results.keySet == expected.keySet)
    for ((qid, ids) <- expected)
      assert(run.results(qid).map(_._1).toSeq == ids, s"qid $qid differs")
  }

  test("options that would fail inside a pass are rejected at construction") {
    val bad = Seq[() => EngineOptions](
      () => EngineOptions(k = 0),
      () => EngineOptions(defaultNprobe = 0),
      () => EngineOptions(nprobe = Map(1 -> 4, 2 -> 0)),
      () => EngineOptions(postFilterExpansion = 0))
    for (make <- bad) intercept[IllegalArgumentException](make())
  }

  test("a workload whose metric is not the index's is rejected, naming both") {
    val w = history(this).copy(metric = Metric.L2)
    val e = intercept[IllegalArgumentException](BatchEngine.run(hqi(this), w, EngineOptions()))
    assert(e.getMessage.contains("L2") && e.getMessage.contains("IP"), e.getMessage)
  }

  test("a query vector of the wrong dimension or with a non-finite component is rejected, naming the query") {
    val qs = history(this).queries
    val last = qs.last
    for (index <- Seq(hqi(this), flat(this))) {
      def rejected(queries: IndexedSeq[HybridQuery]): String = intercept[IllegalArgumentException](
        BatchEngine.run(index, history(this).copy(queries = queries), EngineOptions())).getMessage
      val shorter = rejected(qs.map(q => q.copy(vec = q.vec.take(D - 1))))
      assert(shorter.contains(s"query ${qs.head.qid} has dimension ${D - 1}") && shorter.endsWith(s", $D"), shorter)
      val longer = rejected(qs.init :+ last.copy(vec = last.vec :+ 0.5f))
      assert(longer.contains(s"query ${last.qid} has dimension ${D + 1}") && longer.endsWith(s", $D"), longer)
      val nan = rejected(qs.init :+ last.copy(vec = last.vec.updated(3, Float.NaN)))
      assert(nan.contains(s"query ${last.qid} has a non-finite component"), nan)
    }
  }

  test("work counters are identical across two passes of the same workload") {
    for ((strategy, index) <- Seq(Strategy.HQI -> hqi(this), Strategy.PreFilter -> flat(this),
                                  Strategy.PostFilter -> flat(this))) {
      val opts = strategy.opts.copy(defaultNprobe = 4)
      val Seq(a, b) = Seq.fill(2)(BatchEngine.run(index, workload, opts).metrics).map(untimed)
      assert(a == b, s"$strategy counters differ between passes")
      assert(a.tuplesScanned > 0 && a.distComps > 0 && a.routedTuples > 0, s"$strategy: $a")
    }
  }

  /** A pass's metrics without its timings, which differ between passes. */
  private def untimed(m: EngineMetrics): EngineMetrics = m.copy(wallMillis = 0, phases = PassPhases(0, 0, 0, 0, 0, 0))

  /** Ids of the broadcasts whose blocks the block manager holds. */
  private def broadcastIds: Set[Long] = SparkEnv.get.blockManager.getMatchingBlockIds(_.isBroadcast)
    .collect { case BroadcastBlockId(id, _) => id }.toSet

  /** Ids of the RDDs Spark currently keeps persisted. */
  private def persistedIds: Set[Int] = spark.sparkContext.getPersistentRDDs.keySet.toSet

  /** A fresh HQI index and the ids of the RDDs its build persisted. */
  private def buildTracked(): (PartitionedIndex, Set[Int]) = {
    workload
    val before = persistedIds
    val idx = IndexBuilder.buildHQI(db(this), KGData.AttrCols, Metric.IP, workload, HQIOptions(minSize = 256))
    (idx, persistedIds -- before)
  }

  test("unpersist releases every RDD the index build persisted") {
    val (idx, built) = buildTracked()
    assert(built.nonEmpty)
    assert(broadcastIds(idx.placement.id), "the placement broadcast holds no blocks")
    idx.unpersist()
    assert((persistedIds intersect built).isEmpty, s"still persisted: ${persistedIds intersect built}")
    // Destroying a broadcast removes its blocks asynchronously.
    eventually(timeout(Span(5, Seconds))) {
      assert(!broadcastIds(idx.placement.id), s"placement broadcast ${idx.placement.id} still holds blocks")
    }
  }

  test("the task a pass runs over an index's cells does not grow with the rows indexed") {
    // Every pass serializes `cells` with its lineage into its task. Per-row
    // data in that lineage, such as placement arrays captured by the layout
    // UDF's closure, would make each task grow with N.
    val ser = SparkEnv.get.closureSerializer.newInstance()
    val big = KGData.entities(spark, 4 * N, D).cache()
    val bigIdx = IndexBuilder.buildFlat(big, KGData.AttrCols, Metric.IP)
    try {
      val Seq(atN, at4N) = Seq(flat(this), bigIdx).map(i => ser.serialize(i.cells).limit())
      assert(at4N < atN + 1024, s"serialized cells RDD: $atN bytes at N = $N, $at4N bytes at 4N")
    } finally { bigIdx.unpersist(); big.unpersist() }
  }

  test("a pass after the index's persisted blocks are evicted returns the same results and counters") {
    val (idx, built) = buildTracked()
    val opts = EngineOptions(k = workload.k, defaultNprobe = 8)
    val resident = BatchEngine.run(idx, workload, opts)
    // Evict as the block manager would; Spark recomputes from lineage.
    built.foreach(id => spark.sparkContext.getPersistentRDDs(id).unpersist(blocking = true))
    assert(spark.sparkContext.getRDDStorageInfo.forall(r => !built(r.id)))
    val recomputed = BatchEngine.run(idx, workload, opts)
    assert(untimed(recomputed.metrics) == untimed(resident.metrics))
    assert(recomputed.results.keySet == resident.results.keySet)
    for ((qid, rs) <- resident.results)
      assert(recomputed.results(qid).sameElements(rs), s"qid $qid: ids or scores differ")
    idx.unpersist()
  }
}
