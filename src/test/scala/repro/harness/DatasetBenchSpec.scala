package repro.harness

import repro.SparkSpec
import repro.harness.Strategy._

/** The harness path of Tables 3 and 4 (`benchDataset`: build, then the
  * `tuned` and `measure` Table 5 shares) end to end on a small RelatedQS
  * stand-in. Asserts counters and recall, never wall time.
  */
class DatasetBenchSpec extends SparkSpec {

  private lazy val bench = Experiments.datasetBenches(
    spark, Experiments.Scale(n = 3000, d = 8, nqRelated = 200), only = Some(Set("RelatedQS"))).head

  private def row(s: Strategy): StrategyRow = bench.row(s).get

  test("one row per strategy, with Range not applicable to RelatedQS") {
    assert(bench.rows.map(_.strategy) == Seq(HQI, PreFilter, PostFilter, Range))
    assert(!row(Range).applicable)
  }

  test("HQI scans fewer tuples than PreFilter") {
    assert(row(HQI).tuplesScanned < row(PreFilter).tuplesScanned,
           s"HQI ${row(HQI).tuplesScanned} vs PreFilter ${row(PreFilter).tuplesScanned}")
  }

  test("HQI and PreFilter reach the recall target") {
    for (s <- Seq(HQI, PreFilter)) assert(row(s).reachedTarget, s"$s: recall ${row(s).recall}")
  }
}
