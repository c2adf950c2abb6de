package repro.core

import repro.SparkSpec
import repro.core.engine._
import repro.core.vec.Metric
import repro.workload.{KGData, Templates}

/** HQI-specific behaviour: centroid routing (m > 0), robustness to unseen
  * future splits (the Table 5 property), and pruning-power accounting.
  */
class HQISpec extends SparkSpec {
  import EngineFixtures._

  private lazy val workload = history(this)
  private lazy val gt = truth(this, workload)

  test("m > 0 builds centroid predicates and a global centroid table") {
    val idx = IndexBuilder.buildHQI(db(this), KGData.AttrCols, Metric.IP, workload,
      HQIOptions(minSize = 256, m = 5, numGlobalCentroids = 16))
    val Routing.ByQDTree(preds, _, centroids) = idx.routing: @unchecked
    assert(centroids.isDefined)
    assert(centroids.get.global.length == 16)
    assert(preds.exists(_.describe.startsWith("__centroid")))
    idx.unpersist()
  }

  test("m > 0 routing is per-query and routes to no more partitions than needed") {
    val idx = IndexBuilder.buildHQI(db(this), KGData.AttrCols, Metric.IP, workload,
      HQIOptions(minSize = 256, m = 3, numGlobalCentroids = 16))
    val t9 = workload.templateById(9) // high selectivity: centroid routing can prune
    val routedAll = idx.leaves.length
    val counts = workload.queries.filter(_.templateId == 9).take(20)
      .map(q => idx.route(t9, q.vec).size)
    assert(counts.forall(c => c >= 1 && c <= routedAll))
    idx.unpersist()
  }

  test("m > 0 still yields high recall with full per-partition probing") {
    val idx = IndexBuilder.buildHQI(db(this), KGData.AttrCols, Metric.IP, workload,
      HQIOptions(minSize = 256, m = 10, numGlobalCentroids = 16))
    val maxCells = idx.leaves.map(_.centroids.length).sum
    val run = BatchEngine.run(idx, workload, EngineOptions(k = workload.k, defaultNprobe = maxCells))
    val rec = Recall.overall(run.results, gt, workload.k)
    assert(rec >= 0.9, s"m=10 with full probing should stay near-exact, got $rec")
    idx.unpersist()
  }

  test("index trained on t0 serves unseen splits t1..t3 exactly (filter stability)") {
    // The Table 5 property: templates are shared across splits, so routing
    // stays safe and recall stays exact for full probing on future queries.
    val idx = hqi(this)
    val maxCells = idx.leaves.map(_.centroids.length).sum
    for (split <- 1 to 3) {
      val w = Templates.relatedQSWorkload(db(this), split, 60)
      val wTruth = truth(this, w)
      val run = BatchEngine.run(idx, w, EngineOptions(k = w.k, defaultNprobe = maxCells))
      for ((qid, rs) <- wTruth)
        assert(run.results.getOrElse(qid, Array.empty).map(_._1).sameElements(rs.map(_._1)),
               s"split $split qid $qid differs from exhaustive")
    }
  }

  test("routed tuple fraction is selectivity-ordered (low-selectivity templates prune more)") {
    val idx = hqi(this)
    val total = idx.totalRows
    def frac(tid: Int): Double = {
      val t = workload.templateById(tid)
      idx.route(t, workload.queries.head.vec).map(idx.leafById(_).size).sum.toDouble / total
    }
    // T2 (0.1% selectivity) must prune far more than T10 (60%).
    assert(frac(2) < frac(10), s"T2 ${frac(2)} should be < T10 ${frac(10)}")
    assert(frac(2) < 0.7, s"selective template should skip a sizable share, scanned ${frac(2)}")
  }

  test("qd-tree construction accounts for a minority of HQI build work (Table 4 claim shape)") {
    // Rebuild and compare: HQI build vs flat build on the same data. The
    // paper reports HQI builds are comparable to or faster than single-IVF
    // builds; at minimum the qd-tree must not blow up build time.
    val flatMs = flat(this).buildMillis
    val hqiMs = hqi(this).buildMillis
    assert(hqiMs < flatMs * 6, s"HQI build ($hqiMs ms) should be within 6x of flat ($flatMs ms)")
  }

  test("predicates that display alike route by value: nprobe=∞ equals exhaustive for both templates") {
    val (db, w) = alikeTable(spark)
    val idx = IndexBuilder.buildHQI(db, Seq("genre"), Metric.IP, w, HQIOptions(minSize = 50))
    val maxCells = idx.leaves.map(_.centroids.length).sum
    val exact = BatchEngine.run(idx, w, EngineOptions(k = w.k, exhaustive = true)).results
    val routed = BatchEngine.run(idx, w, EngineOptions(k = w.k, defaultNprobe = maxCells)).results
    assert(w.queries.forall(q => exact.contains(q.qid)))
    for (q <- w.queries)
      assert(routed.getOrElse(q.qid, Array.empty).map(_._1).sameElements(exact(q.qid).map(_._1)),
             s"qid ${q.qid} (template ${q.templateId}) differs")
    idx.unpersist()
  }
}
