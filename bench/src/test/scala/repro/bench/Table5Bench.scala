package repro.bench

import repro.SparkSpec
import repro.harness.Experiments
import repro.harness.Strategy._

/** Reproduces Table 5: HQI trained only on split t0 keeps its advantage on
  * unseen future splits t1..t3 (filter stability).
  *
  * Wall-clock QPS is printed for reference, but at sub-second run times it
  * carries heavy JVM/GC noise, so the assertions use the deterministic
  * quantities that make the paper's point: on unseen splits the t0-trained
  * index (with t0-tuned nprobe) still reaches the recall target and still
  * scans a fraction of PreFilter's tuples — i.e. no re-indexing is needed.
  */
class Table5Bench extends SparkSpec {

  private lazy val result: Experiments.Table5Result =
    Experiments.table5(spark, BenchScale.scale)

  test("Table 5: print measured vs paper") {
    println("\n== Table 5: QPS by split, HQI trained on t0 only (measured vs paper) ==")
    println(result.rendered)
    assert(result.qps.size == 8)
  }

  test("Table 5: the t0-trained index reaches the recall target on every unseen split") {
    for (s <- 0 to 3) {
      val r = result.recall((HQI, s))
      assert(r >= 0.78, s"split t$s: HQI recall $r with t0-trained index and t0-tuned nprobe")
    }
  }

  test("Table 5: HQI scans far fewer tuples than PreFilter on every split, including unseen ones") {
    for (s <- 0 to 3) {
      val h = result.scanned((HQI, s))
      val p = result.scanned((PreFilter, s))
      assert(h < p * 6 / 10, s"split t$s: HQI scanned $h vs PreFilter $p")
    }
  }

  test("Table 5: HQI's per-split scan work is stable (no re-indexing needed)") {
    val base = result.scanned((HQI, 0)).toDouble
    for (s <- 1 to 3) {
      val ratio = result.scanned((HQI, s)) / base
      assert(ratio > 0.5 && ratio < 2.0,
             s"split t$s: scan ratio $ratio vs t0 should be near 1 (stable templates)")
    }
  }

  test("Table 5: HQI wall-clock throughput is at least competitive on every split") {
    for (s <- 0 to 3) {
      val ratio = result.qps((HQI, s)) / result.qps((PreFilter, s))
      assert(ratio > 0.4,
             s"split t$s: HQI/PreFilter QPS ratio $ratio (paper: ~31×; noise-tolerant floor)")
    }
  }
}
