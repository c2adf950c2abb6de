package repro.bench

import org.apache.spark.sql.DataFrame
import scala.util.Random

import repro.SparkSpec
import repro.core.engine._
import repro.core.vec.{BatchScorer, Block, Metric}
import repro.workload.{KGData, Templates}

/** §6.3 microbenchmarks: the effect of each batching knob in isolation
  * (the paper's Figures 7a–7c, reported as printed sweeps since figures are
  * out of scope).
  */
class MicrobenchBench extends SparkSpec {

  private val N = 30000L
  private lazy val db: DataFrame = { val d = KGData.entities(spark, N, 32).cache(); d.count(); d }
  private lazy val history = Templates.relatedQSWorkload(db, 0, 800)
  private lazy val hqi = IndexBuilder.buildHQI(db, KGData.AttrCols, Metric.IP, history,
                                               HQIOptions(minSize = 1024))
  private lazy val flat = IndexBuilder.buildFlat(db, KGData.AttrCols, Metric.IP)

  test("Fig 7c analog: attribute-constraint batching amortizes filter work") {
    val opts = EngineOptions(defaultNprobe = 8)
    // warmup both paths
    BatchEngine.run(flat, history.sampledPerTemplate(5), opts)
    BatchEngine.run(flat, history.sampledPerTemplate(5), opts.copy(attrBatching = false))

    val on = BatchEngine.run(flat, history, opts)
    val off = BatchEngine.run(flat, history, opts.copy(attrBatching = false))
    println(f"\n[micro] attr batching ON : ${on.metrics.wallMillis}%6.0f ms, filterRows=${on.metrics.filterRows}")
    println(f"[micro] attr batching OFF: ${off.metrics.wallMillis}%6.0f ms, filterRows=${off.metrics.filterRows}")
    assert(off.metrics.filterRows > on.metrics.filterRows * 3,
           "no-batching must repeat per-query filter evaluation (paper: 300× runtime effect)")
    // results identical
    for ((qid, rs) <- on.results)
      assert(off.results(qid).map(_._1).sameElements(rs.map(_._1)))
  }

  test("Fig 7b analog: the batched score kernel beats per-pair scans at realistic group sizes") {
    val rnd = new Random(7)
    val d = 64
    val g = 256     // queries grouped on one posting list
    val n = 8192    // posting list length
    val queries = Array.fill(g)(Array.fill(d)(rnd.nextFloat()))
    val data = Array.fill(n)(Array.fill(d)(rnd.nextFloat()))
    val block = Block(Array.tabulate(n)(_.toLong), data, d)
    val scorer = new BatchScorer

    def timeMs(f: => Unit): Long = { val t0 = System.nanoTime(); f; (System.nanoTime() - t0) / 1000000 }
    // warmup
    scorer.scores(queries, block, Metric.L2)
    var sink = 0f
    for (q <- queries.take(32); v <- data.take(256)) sink += Metric.L2.score(q, v)

    val batched = timeMs { var r = 0; while (r < 10) { scorer.scores(queries, block, Metric.L2); r += 1 } }
    val perPair = timeMs {
      var r = 0
      while (r < 10) {
        var i = 0
        while (i < g) {
          val q = queries(i); var j = 0
          while (j < n) { sink += Metric.L2.score(q, data(j)); j += 1 }
          i += 1
        }
        r += 1
      }
    }
    println(f"\n[micro] batched kernel: ${batched}%5d ms for 10 rounds of ${g}x$n@$d (sink=$sink%.1f)")
    println(f"[micro] per-pair scan : ${perPair}%5d ms")
    assert(batched <= perPair * 13 / 10,
           s"batched kernel ($batched ms) should not lose to per-pair scans ($perPair ms)")
  }

  test("Fig 7a analog: HQI handles the online setting (batch size 1) and gains with batch size") {
    val t4 = history.queries.filter(_.templateId == 4)
    assume(t4.size >= 64, "need T4 queries")
    val opts = EngineOptions(defaultNprobe = 8)
    // warmup
    BatchEngine.run(hqi, history.copy(queries = t4.take(8)), opts)

    val sizes = Seq(1, 8, 64)
    val perQuery = sizes.map { bs =>
      val w = history.copy(queries = t4.take(bs))
      val run = BatchEngine.run(hqi, w, opts)
      val pq = run.metrics.wallMillis / bs
      println(f"[micro] batch size $bs%3d: ${run.metrics.wallMillis}%5.0f ms (${pq}%8.1f ms/query)")
      pq
    }
    assert(perQuery.head > 0)
    assert(perQuery.last < perQuery.head,
           s"per-query cost should fall with batch size: $perQuery")
  }

  test("HQI routing prunes partitions for selective templates (Fig 5 analog, per template)") {
    val total = hqi.totalRows
    println("\n[micro] fraction of tuples routed per template (HQI m=0):")
    for (t <- Templates.relatedQS) {
      val frac = hqi.route(t, history.queries.head.vec).map(hqi.leafById(_).size).sum.toDouble / total
      println(f"[micro]   ${t.name}%-4s routed fraction = $frac%.3f")
    }
    val frac2 = hqi.route(Templates.relatedQS(1), history.queries.head.vec)
      .map(hqi.leafById(_).size).sum.toDouble / total
    val frac10 = hqi.route(Templates.relatedQS(9), history.queries.head.vec)
      .map(hqi.leafById(_).size).sum.toDouble / total
    assert(frac2 < frac10, "selective T2 must route to fewer tuples than T10")
    assert(frac2 < 0.5, s"T2 should skip most of the data, got $frac2")
  }
}
