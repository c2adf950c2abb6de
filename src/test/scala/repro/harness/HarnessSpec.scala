package repro.harness

import org.scalatest.funsuite.AnyFunSuite

import repro.harness.Strategy._

class HarnessSpec extends AnyFunSuite {

  private def row(s: Strategy, build: Long, run: Long, applicable: Boolean = true) =
    StrategyRow(s, build, run, 0, 0, 0, 0.9, reachedTarget = true, applicable = applicable)

  test("slowdown is strategy runtime over HQI runtime") {
    val b = DatasetBench("x", Seq(row(HQI, 100, 200), row(PreFilter, 100, 600)))
    assert(b.slowdown(PreFilter).contains(3.0))
    assert(b.slowdown(HQI).contains(1.0))
  }

  test("slowdown of a non-applicable strategy is None") {
    val b = DatasetBench("x", Seq(row(HQI, 100, 200), row(Range, 1, 1, applicable = false)))
    assert(b.slowdown(Range).isEmpty)
  }

  test("buildRatio is strategy build time over HQI build time") {
    val b = DatasetBench("x", Seq(row(HQI, 100, 200), row(PreFilter, 250, 600)))
    assert(b.buildRatio(PreFilter).contains(2.5))
  }

  test("ratios guard against a zero-time HQI") {
    val b = DatasetBench("x", Seq(row(HQI, 0, 0), row(PreFilter, 10, 10)))
    assert(b.slowdown(PreFilter).contains(10.0))
    assert(b.buildRatio(PreFilter).contains(10.0))
  }

  test("missing strategy yields None") {
    val b = DatasetBench("x", Seq(row(HQI, 1, 1)))
    assert(b.slowdown(PostFilter).isEmpty)
  }

  test("fmtRatio renders the paper's × convention") {
    assert(Harness.fmtRatio(Some(31.2)) == "31×")
    assert(Harness.fmtRatio(Some(0.97)) == "0.97×")
    assert(Harness.fmtRatio(Some(1.234)) == "1.23×")
    assert(Harness.fmtRatio(None) == "NA")
  }

  test("renderTable aligns columns") {
    val t = Harness.renderTable(Seq("a", "bb"), Seq(Seq("xxx", "y"), Seq("z", "wwww")))
    val lines = t.split("\n")
    assert(lines.length == 3)
    assert(lines.forall(_.length == lines.head.length))
  }

  test("strategyOpts encodes the paper's per-strategy batching defaults") {
    val hqi = HQI.opts
    assert(hqi.vectorBatching && hqi.attrBatching && !hqi.postFilter && !hqi.eagerBitmap)
    val pre = PreFilter.opts
    assert(!pre.vectorBatching && pre.attrBatching && pre.eagerBitmap)
    val post = PostFilter.opts
    assert(post.postFilter && !post.vectorBatching)
    val range = Range.opts
    assert(!range.vectorBatching && range.attrBatching && !range.eagerBitmap)
    val exhaustive = Exhaustive.opts
    assert(exhaustive.exhaustive && Seq(hqi, pre, post, range).forall(!_.exhaustive))
    assert(Seq(hqi, pre, post, range, exhaustive).forall(_.k == Harness.K))
  }

  test("Experiments: paper tables carry the published cells") {
    assert(Experiments.paperTable3((PreFilter, "RelatedQS")) == "31×")
    assert(Experiments.paperTable3((PostFilter, "RelatedQS")) == "136×")
    assert(Experiments.paperTable3((Range, "MSTuring")) == "5.22×")
    assert(Experiments.paperTable4((PreFilter, "MSTuring")) == "2.8×")
  }

  test("renderTable3 marks Range NA on KG datasets and includes paper columns") {
    val benches = Seq(
      DatasetBench("RelatedQS", Seq(row(HQI, 10, 10), row(PreFilter, 10, 50),
        row(PostFilter, 10, 100), row(Range, 0, 0, applicable = false))))
    val t = Experiments.renderTable3(benches)
    assert(t.contains("NA"))
    assert(t.contains("RelatedQS(paper)"))
    assert(t.contains("31×"))
  }

  test("Tables 3 and 4 render a fixed set of rows exactly") {
    val benches = Seq(
      DatasetBench("RelatedQS", Seq(row(HQI, 1000, 200), row(PreFilter, 950, 800),
        StrategyRow(PostFilter, 950, 5000, 0, 0, 0, 0.55, reachedTarget = false),
        row(Range, 0, 0, applicable = false))),
      DatasetBench("MSTuring", Seq(row(HQI, 1000, 100), row(PreFilter, 2800, 360),
        row(PostFilter, 2800, 2200), row(Range, 850, 522))))
    assert(Experiments.renderTable3(benches) == Seq(
      "Approach    RelatedQS          RelatedQS(paper)  MSTuring  MSTuring(paper)",
      "HQI         1×                 1×                1×        1×             ",
      "PreFilter   4.00×              31×               3.60×     3.6×           ",
      "PostFilter  25× (recall 0.55)  136×              22×       22×            ",
      "Range       NA                 NA                5.22×     5.22×          ").mkString("\n"))
    assert(Experiments.renderTable4(benches) == Seq(
      "Approach   RelatedQS  RelatedQS(paper)  MSTuring  MSTuring(paper)",
      "HQI        1×         1×                1×        1×             ",
      "PreFilter  0.95×      0.95×             2.80×     2.8×           ",
      "Range      NA         NA                0.85×     0.85×          ").mkString("\n"))
  }

  test("Scale derives the other datasets' query counts from RelatedQS's") {
    val s = Experiments.Scale(nqRelated = 6000)
    assert((s.nqLp, s.nqBigann, s.nqSift) == ((3000, 300, 30)))
    val default = Experiments.Scale()
    assert((default.nqLp, default.nqBigann, default.nqSift) == ((1000, 100, 10)))
  }

  test("minSize is a 64th of the rows, at least 512") {
    assert(Harness.minSize(100_000) == 1562)
    assert(Harness.minSize(20_000) == 512)
  }

  test("table2 includes all five datasets") {
    val t = Experiments.table2()
    Seq("SIFT", "MSTuring", "YandexT2I", "LP", "RelatedQS").foreach(n => assert(t.contains(n)))
  }
}
