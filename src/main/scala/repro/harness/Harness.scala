package repro.harness

import org.apache.spark.sql.DataFrame

import repro.core.engine._
import repro.core.vec.Metric
import repro.workload.Workload

/** A query-answering strategy the evaluation (§6.1) runs: HQI or one of
  * Strategies A–D of §2.2, with its engine options at [[Harness.K]]. All
  * baselines batch queries by attribute constraint (the paper enables this
  * for every baseline); only HQI adds vector-similarity batching
  * (Algorithm 3). PreFilter additionally pays Strategy B's full-dataset
  * bitmap construction.
  */
sealed abstract class Strategy(val opts: EngineOptions) extends Product with Serializable

object Strategy {
  case object HQI extends Strategy(EngineOptions(k = Harness.K))
  case object PreFilter extends Strategy(EngineOptions(k = Harness.K, vectorBatching = false, eagerBitmap = true))
  case object PostFilter extends Strategy(EngineOptions(k = Harness.K, vectorBatching = false, postFilter = true))
  case object Range extends Strategy(EngineOptions(k = Harness.K, vectorBatching = false))
  /** Strategy A: exact results, the ground truth of every recall figure. */
  case object Exhaustive extends Strategy(EngineOptions(k = Harness.K, exhaustive = true))
}

/** One strategy's measured numbers on one dataset; `phases` splits the
  * measured pass (none for a strategy that does not apply).
  */
final case class StrategyRow(strategy: Strategy,
                             buildMillis: Long,
                             runMillis: Long,
                             tuplesScanned: Long,
                             distComps: Long,
                             routedTuples: Long,
                             recall: Double,
                             reachedTarget: Boolean,
                             applicable: Boolean = true,
                             phases: Option[PassPhases] = None)

/** All strategies on one dataset, with ratio helpers for the paper's
  * "normalized by HQI" tables.
  */
final case class DatasetBench(dataset: String, rows: Seq[StrategyRow]) {
  def row(s: Strategy): Option[StrategyRow] = rows.find(_.strategy == s)

  /** Table 3 cell: strategy runtime / HQI runtime. */
  def slowdown(strategy: Strategy): Option[Double] =
    for (h <- row(Strategy.HQI); s <- row(strategy) if s.applicable)
      yield s.runMillis.toDouble / math.max(1L, h.runMillis)

  /** Table 4 cell: strategy build time / HQI build time. */
  def buildRatio(strategy: Strategy): Option[Double] =
    for (h <- row(Strategy.HQI); s <- row(strategy) if s.applicable)
      yield s.buildMillis.toDouble / math.max(1L, h.buildMillis)
}

/** Shared benchmarking harness: builds every applicable index for a dataset,
  * tunes each strategy per template to the target recall (§6.1), then times
  * one full batch pass per strategy (Table 3) and records build times
  * (Table 4).
  */
object Harness {

  /** The evaluation protocol of §6.1, fixed for every table: top-10
    * queries, per-template tuning to recall 0.8 on a 25-query sample per
    * template, and 16 equi-depth partitions for Range.
    */
  val K = 10
  val TargetRecall = 0.8
  val TunePerTemplate = 25
  val RangeParts = 16

  /** qd-tree MIN_SIZE for an `n`-row dataset: about 64 leaves, and none
    * below 512 rows.
    */
  def minSize(n: Long): Int = math.max(512, (n / 64).toInt)

  /** `strategy`'s engine options tuned per template on `sample` to the
    * target recall against `gt`, after one untimed warm-up pass over the
    * sample so the first strategy measured does not absorb JIT compilation
    * and cache-warming costs.
    */
  def tuned(strategy: Strategy, index: PartitionedIndex, sample: Workload,
            gt: Map[Long, Array[(Long, Float)]]): EngineOptions = {
    val base = strategy.opts
    val tune = Tuning.tuneNprobe(index, sample, gt, TargetRecall, K, base = base)
    val opts = base.copy(nprobe = tune.nprobe, postFilterExpansion = tune.expansion)
    BatchEngine.run(index, sample, opts)
    opts
  }

  /** One timed measurement of `workload` under `opts`: the faster of two
    * passes, which damps GC/scheduler noise (PostFilter is slow enough that
    * one pass suffices), and its recall against `gt`.
    */
  def measure(strategy: Strategy, index: PartitionedIndex, workload: Workload, opts: EngineOptions,
              gt: Map[Long, Array[(Long, Float)]]): StrategyRow = {
    val run = Seq.fill(if (opts.postFilter) 1 else 2)(BatchEngine.run(index, workload, opts))
      .minBy(_.metrics.wallMillis)
    val recall = Recall.overall(run.results, gt, K)
    StrategyRow(strategy, index.buildMillis, math.round(run.metrics.wallMillis),
                run.metrics.tuplesScanned, run.metrics.distComps, run.metrics.routedTuples,
                recall, reachedTarget = recall >= TargetRecall - 0.02, phases = Some(run.metrics.phases))
  }

  /** Run every applicable strategy on one dataset.
    *
    * @param history   workload used for qd-tree training ([[Workload]] with
    *                  no queries = no history, the LP case)
    * @param rangeAttr Strategy C partitioning attribute; None marks Range
    *                  as not applicable (RelatedQS/LP have IN / IS NOT NULL
    *                  constraints over multiple attributes)
    */
  def benchDataset(name: String, db: DataFrame, attrCols: Seq[String], metric: Metric,
                   workload: Workload, history: Workload, rangeAttr: Option[String]): DatasetBench = {
    def log(s: String): Unit = println(s"[bench:$name] $s")

    val n = db.count()
    log(s"building indexes over $n rows, |Q| = ${workload.size}")
    // Warm the build code paths (collect, k-means, layout) on a small sample
    // so the first timed build does not absorb JIT compilation, and start
    // each timed build from a settled heap.
    // (an id-filter, not limit(): limit is non-deterministic across the
    // multiple passes a build makes over its input)
    IndexBuilder.buildFlat(db.filter(org.apache.spark.sql.functions.col("id") < 2000),
                           attrCols, metric, name = "warmup").unpersist()
    System.gc()
    val hqiIdx = IndexBuilder.buildHQI(db, attrCols, metric, history,
      HQIOptions(minSize = minSize(n)))
    log(s"HQI built in ${hqiIdx.buildMillis} ms (${hqiIdx.numPartitions} partitions) ${hqiIdx.buildPhases.describe}")
    System.gc()
    val flatIdx = IndexBuilder.buildFlat(db, attrCols, metric)
    log(s"PreFilter built in ${flatIdx.buildMillis} ms ${flatIdx.buildPhases.describe}")
    val rangeIdx = rangeAttr.map { a =>
      System.gc()
      val r = IndexBuilder.buildRange(db, attrCols, metric, a, RangeParts)
      log(s"Range built in ${r.buildMillis} ms ${r.buildPhases.describe}")
      r
    }

    // Exhaustive ground truth over the full workload (also the recall oracle).
    val exhaustive = BatchEngine.run(flatIdx, workload, Strategy.Exhaustive.opts)
    val gt = exhaustive.results
    log(s"ground truth computed for ${gt.size} queries ${exhaustive.metrics.phases.describe}")

    val sample = workload.sampledPerTemplate(TunePerTemplate)

    def timed(strategy: Strategy, index: PartitionedIndex): StrategyRow = {
      val row = measure(strategy, index, workload, tuned(strategy, index, sample, gt), gt)
      log(f"$strategy%-10s run=${row.runMillis}%6d ms scanned=${row.tuplesScanned}%12d " +
          f"dist=${row.distComps}%12d recall=${row.recall}%.3f reached=${row.reachedTarget} " +
          row.phases.fold("")(_.describe))
      row
    }

    val rows = Seq(
      timed(Strategy.HQI, hqiIdx),
      timed(Strategy.PreFilter, flatIdx),
      timed(Strategy.PostFilter, flatIdx),
      rangeIdx.fold(StrategyRow(Strategy.Range, 0, 0, 0, 0, 0, 0.0, reachedTarget = false, applicable = false))(
        timed(Strategy.Range, _)))

    hqiIdx.unpersist(); flatIdx.unpersist(); rangeIdx.foreach(_.unpersist())
    DatasetBench(name, rows)
  }

  /** Render a ratio with the paper's "×" convention. */
  def fmtRatio(r: Option[Double]): String = r match {
    case Some(v) if v >= 10 => f"$v%.0f×"
    case Some(v)            => f"$v%.2f×"
    case None               => "NA"
  }

  /** Fixed-width table printer for bench output. */
  def renderTable(header: Seq[String], rows: Seq[Seq[String]]): String = {
    val all = header +: rows
    val widths = header.indices.map(i => all.map(_(i).length).max)
    def fmt(r: Seq[String]) = r.zip(widths).map { case (c, w) => c.padTo(w, ' ') }.mkString("  ")
    (fmt(header) +: rows.map(fmt)).mkString("\n")
  }
}
