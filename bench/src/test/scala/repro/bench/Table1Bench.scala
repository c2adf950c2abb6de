package repro.bench

import repro.SparkSpec
import repro.harness.Experiments
import repro.workload.Templates

/** Reproduces Table 1: template shares per temporal split t0..t3 and the
  * templates' selectivities ("feasible KG entities").
  */
class Table1Bench extends SparkSpec {

  private lazy val result = Experiments.table1(spark, n = BenchScale.scale.n,
                                               queriesPerSplit = BenchScale.scale.nqRelated)

  test("Table 1: print measured vs paper") {
    println("\n== Table 1: query workload characteristics (measured vs paper) ==")
    println(result.rendered)
    assert(result.rows.size == 10)
  }

  test("Table 1: template shares match the paper's split mixes within 3%") {
    for ((split, s) <- (0 to 3).zipWithIndex) {
      val freqs = Templates.SplitFreqs(split)
      val total = freqs.sum.toDouble
      for ((row, i) <- result.rows.zipWithIndex) {
        val want = freqs(i) / total
        assert(math.abs(row.shares(s) - want) < 0.03,
               s"split t$split ${row.template}: got ${row.shares(s)} want $want")
      }
      val _ = s
    }
  }

  test("Table 1: selectivities are sorted lowest (T1) to highest (T10) as in the paper") {
    val sels = result.rows.map(_.selectivity)
    assert(sels.head == sels.min)
    assert(sels.last >= sels.max * 0.9)
    // Low-selectivity group well below high-selectivity group.
    assert(sels.take(7).max < sels.drop(7).min)
  }

  test("Table 1: selectivity magnitudes track the paper's bands") {
    val sels = result.rows.map(_.selectivity)
    assert(sels(0) <= 0.0005, s"T1 should be ultra-selective, got ${sels(0)}")          // <0.005% band
    assert(sels(6) > 0.005 && sels(6) < 0.10, s"T7 ~2.5%, got ${sels(6)}")
    assert(sels(7) > 0.15 && sels(7) < 0.45, s"T8 ~30%, got ${sels(7)}")
    assert(sels(9) > 0.45 && sels(9) < 0.75, s"T10 ~60%, got ${sels(9)}")
  }
}
