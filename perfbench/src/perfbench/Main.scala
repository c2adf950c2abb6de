package perfbench

import java.io.File
import java.nio.file.{Files, Paths}

import scala.collection.mutable
import scala.jdk.CollectionConverters._

import org.apache.spark.sql.{DataFrame, SparkSession}

import repro.core.engine.{EngineRun, PartitionedIndex}
import repro.workload.Workload

/** Entry point: `perfbench.Main --workload <name> --seed <n> --seconds <s>
  * --trace <0|1> --state <dir> --build-id <hash>`. Prints one JSON result as
  * its last stdout line; see `perfbench/README.md`.
  */
object Main {

  final case class Opts(workload: String, seed: Long, seconds: Int, trace: Boolean,
                        stateDir: String, buildId: String)

  val Workloads: Set[String] = Set("kg-batch", "lp-batch")

  def parse(args: Array[String]): Opts = {
    val kv = args.grouped(2).collect { case Array(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    def need(k: String): String = kv.getOrElse(k, throw new IllegalArgumentException(s"missing --$k"))
    val o = Opts(need("workload"), need("seed").toLong, need("seconds").toInt, need("trace") == "1",
                 need("state"), need("build-id"))
    require(Workloads.contains(o.workload), s"unknown workload ${o.workload}")
    require(o.seconds >= 1, "--seconds must be at least 1")
    o
  }

  def main(args: Array[String]): Unit = {
    val o = parse(args)
    val spark = Adapter.session()
    spark.sparkContext.setLogLevel("ERROR")
    val result = try new QueryBench(spark, o).run() finally spark.stop()
    println(result)
  }
}

/** Collected metrics: name -> (value, unit), in insertion order. */
final class Metrics {
  private val m = mutable.LinkedHashMap.empty[String, (Double, String)]
  def apply(name: String, unit: String, value: Double): Unit = m(name) = (value, unit)
  def json: String = m.map { case (k, (v, u)) => s""""$k": {"value": ${Stats.num(v)}, "unit": "$u"}""" }
    .mkString("{", ", ", "}")
}

object Stats {
  def median(xs: Seq[Double]): Double = percentile(xs, 50)

  /** Linear interpolation between closest ranks. */
  def percentile(xs: Seq[Double], p: Double): Double = {
    require(xs.nonEmpty, "percentile of no samples")
    val s = xs.sorted
    val pos = (s.length - 1) * p / 100.0
    val lo = pos.toInt
    val hi = math.min(lo + 1, s.length - 1)
    s(lo) + (s(hi) - s(lo)) * (pos - lo)
  }

  def num(v: Double): String =
    if (v.isNaN || v.isInfinite) throw new IllegalStateException(s"metric value $v")
    else java.math.BigDecimal.valueOf(v).toPlainString
}

/** One of the query workloads: set-up (index build, nprobe tuning, cold
  * pass) repeated `SetupReps` times, then `BatchEngine.run` passes over the
  * whole workload in a closed loop for `--seconds`.
  */
final class QueryBench(spark: SparkSession, o: Main.Opts) {
  import QueryBench._

  private def log(s: String): Unit = Console.err.println(s"[perfbench ${o.workload}] $s")
  private val tracer: Option[Tracer] = if (o.trace) Some(new Tracer(spark.sparkContext)) else None

  private var attempted = 0L
  private var failed = 0L
  private def op(ok: Boolean, what: => String): Unit = {
    attempted += 1
    if (!ok) { failed += 1; log(s"FAILED: $what") }
  }

  /** Run `body`, timing it and, in a traced run, recording it as a span. */
  private def timed[T](name: String)(body: => T): (T, Double, Option[Span]) = tracer match {
    case Some(t) => val (v, s) = t.span(name)(body); (v, s.ms, Some(s))
    case None =>
      val t0 = System.nanoTime()
      val v = body
      (v, (System.nanoTime() - t0) / 1e6, None)
  }

  /** Per query: every returned id satisfies the template and, on the
    * benchmarked index, the ids equal the first pass's. `short` counts
    * queries that return fewer than min(k, |matches|) ids, a recall loss the
    * approximate search is allowed (see README).
    */
  private final class Checker(workload: Workload, matches: Map[Int, java.util.BitSet], first: EngineRun) {
    def size: Int = workload.size
    private def ids(run: EngineRun, qid: Long): Array[Long] = run.results.getOrElse(qid, Array.empty).map(_._1)
    def bad(run: EngineRun, sameAsFirst: Boolean): Int = workload.queries.count { q =>
      val got = ids(run, q.qid)
      val m = matches(q.templateId)
      !(got.forall(id => m.get(id.toInt)) && (!sameAsFirst || java.util.Arrays.equals(got, ids(first, q.qid))))
    }
    def short(run: EngineRun): Int = workload.queries.count { q =>
      ids(run, q.qid).length < math.min(Adapter.K, matches(q.templateId).cardinality())
    }
  }
  private var checker: Checker = _

  private def checkPass(run: EngineRun, sameAsFirst: Boolean): Unit = {
    val bad = checker.bad(run, sameAsFirst)
    attempted += checker.size
    failed += bad
    if (bad > 0) log(s"FAILED: $bad queries returned ids that fail their template or differ from the first pass")
  }

  private final case class Setup(index: PartitionedIndex, nprobe: Map[Int, Int], cold: EngineRun,
                                 buildMs: Double, tuneMs: Double, coldMs: Double, totalMs: Double,
                                 build: Option[Span], tune: Option[Span])

  def run(): String = {
    val sc = spark.sparkContext
    val tIn = System.nanoTime()

    // ---- Inputs and reference answers: the benchmark's own work, untimed. ----
    // One fixed entity table (the stand-in KG); the seed draws the queries.
    val db = Adapter.entities(spark, N, D, DataSeed)
    val baseRdds = sc.getRDDStorageInfo.map(_.id).toSet
    def draw(seed: Long): Workload = o.workload match {
      case "kg-batch" => Adapter.relatedQS(db, NQ, seed)
      case "lp-batch" => Adapter.lp(db, NQ, seed)
    }
    val workload = draw(o.seed)
    // kg-batch trains the qd-tree on its own (t0) workload; lp-batch has no
    // history, so the build is one partition with √N cells.
    val history = if (o.workload == "kg-batch") workload else Adapter.noHistory(workload)
    // nprobe is tuned on a fixed sample of the same distribution, as on a
    // historical log. Tuning on each seed's own sample doubled some
    // template's nprobe on some seeds and moved the work per pass by 10%.
    val sample = draw(TuneSeed).sampledPerTemplate(Adapter.TunePerTemplate)
    val matches: Map[Int, java.util.BitSet] = workload.templates.map { t =>
      val bs = new java.util.BitSet(N.toInt)
      Adapter.matchingIds(db, t).foreach(id => bs.set(id.toInt))
      t.id -> bs
    }.toMap
    val vecs = Adapter.vectors(db)
    val truth = Oracle.topK(vecs, workload, matches, Adapter.K)
    val sampleTruth = Oracle.topK(vecs, sample, matches, Adapter.K)
    log(f"inputs and ground truth in ${(System.nanoTime() - tIn) / 1e9}%.1f s")

    // ---- Set-up, repeated: build, tune nprobe, cold pass. ----
    val setups = mutable.ArrayBuffer.empty[Setup]
    for (r <- 1 to SetupReps) {
      setups.lastOption.foreach(s => Adapter.unpersist(s.index))
      System.gc()
      val (index, bMs, bSpan) = timed("build")(Adapter.build(db, history, MinSize))
      val (nprobe, tMs, tSpan) = timed("tune")(Adapter.tune(index, sample, sampleTruth))
      val (cold, cMs, _) = timed("pass.cold")(Adapter.run(index, workload, Adapter.hqi(nprobe)))
      setups += Setup(index, nprobe, cold, bMs, tMs, cMs, bMs + tMs + cMs, bSpan, tSpan)
      log(f"set-up $r: build $bMs%.0f ms, tune $tMs%.0f ms, cold pass $cMs%.0f ms")
    }
    val refLeaves = Adapter.leafSizes(setups.head.index).toSeq
    for ((s, r) <- setups.zipWithIndex.tail) {
      val leaves = Adapter.leafSizes(s.index).toSeq
      op(leaves == refLeaves, s"set-up ${r + 1}: leaf sizes $leaves differ from the first build's $refLeaves")
    }
    val index = setups.last.index
    val nprobe = setups.last.nprobe
    val reference = setups.head.cold
    val refCounters = counters(reference)
    checker = new Checker(workload, matches, reference)
    def checkCounters(run: EngineRun, what: String): Unit = {
      val c = counters(run)
      op(c == refCounters, s"$what: counters $c differ from the first pass's $refCounters")
    }
    setups.foreach { s => checkPass(s.cold, sameAsFirst = true); checkCounters(s.cold, "cold pass") }
    checkStoredCounters(refCounters)

    System.gc(); System.gc()
    val heapMb = java.lang.management.ManagementFactory.getMemoryMXBean.getHeapMemoryUsage.getUsed / 1048576.0

    // ---- Timed passes: one client, closed loop. In a traced run every other
    // pass runs with the listener detached, for the tracing overhead. ----
    val plainMs = mutable.ArrayBuffer.empty[Double]
    val tracedPasses = mutable.ArrayBuffer.empty[(Double, Span)]
    val opts = Adapter.hqi(nprobe)
    val deadline = System.nanoTime() + o.seconds * 1000000000L
    var i = 0
    while (System.nanoTime() < deadline) {
      val traceThis = tracer.isDefined && i % 2 == 0
      tracer.foreach { t => t.probe.awaitQuiet(); t.listening(traceThis) }
      try {
        val (run, ms, span) =
          if (traceThis) timed("pass")(Adapter.run(index, workload, opts))
          else {
            val t0 = System.nanoTime()
            val r = Adapter.run(index, workload, opts)
            (r, (System.nanoTime() - t0) / 1e6, None)
          }
        span match {
          case Some(s) => tracedPasses += ((ms, s))
          case None    => plainMs += ms
        }
        checkPass(run, sameAsFirst = true)
        checkCounters(run, s"pass $i")
      } catch {
        case e: Exception =>
          attempted += workload.size; failed += workload.size
          log(s"FAILED: pass $i threw $e")
      }
      i += 1
    }
    tracer.foreach { t => t.probe.awaitQuiet(); t.listening(true) }
    val all = (plainMs ++ tracedPasses.map(_._1)).toSeq
    log(f"$i passes, p25 ${Stats.percentile(all, 25)}%.1f, median ${Stats.median(all)}%.1f, p75 ${Stats.percentile(all, 75)}%.1f ms")

    val metrics = new Metrics
    if (!o.trace) {
      metrics("qps", "1/s", workload.size / (Stats.median(plainMs.toSeq) / 1000.0))
      metrics("recall_at_10", "ratio", recall(reference, truth))
      metrics("setup_s", "s", Stats.median(setups.map(_.totalMs).toSeq) / 1000.0)
      metrics("heap_mb", "MB", heapMb)
    } else {
      val t = tracer.get
      layerMetrics(t, metrics, db, vecs, workload, history, sample, sampleTruth, truth, index, setups.toSeq,
                   plainMs.toSeq, tracedPasses.toSeq, reference, baseRdds)
      val traceFile = s"${o.stateDir}/trace-${o.workload}-${o.seed}.jsonl"
      Files.write(Paths.get(traceFile), t.dump().asJava)
      log(s"spans written to $traceFile")
    }
    Adapter.unpersist(index)
    log(s"attempted $attempted, failed $failed")
    s"""{"correct": ${failed == 0}, "attempted": $attempted, "failed": $failed, "metrics": ${metrics.json}}"""
  }

  /** The engine's four work counters, which must repeat exactly. */
  private def counters(r: EngineRun): Seq[Long] =
    Seq(r.metrics.tuplesScanned, r.metrics.distComps, r.metrics.filterRows, r.metrics.routedTuples)

  /** Counters must also repeat across runs of the same build and seed: the
    * first such run records them in the state directory, later runs compare.
    */
  private def checkStoredCounters(c: Seq[Long]): Unit = {
    val f = Paths.get(s"${o.stateDir}/counters-${o.workload}-${o.seed}-${o.buildId}.txt")
    val line = c.mkString(" ")
    if (Files.exists(f)) {
      val stored = new String(Files.readAllBytes(f)).trim
      op(stored == line, s"counters $line differ from an earlier run's $stored")
    } else Files.write(f, line.getBytes)
  }

  private def recall(run: EngineRun, truth: Map[Long, Array[(Long, Float)]]): Double = {
    val per = truth.toSeq.map { case (qid, gt) =>
      val want = gt.take(Adapter.K).map(_._1).toSet
      if (want.isEmpty) 1.0
      else run.results.getOrElse(qid, Array.empty).take(Adapter.K).count(r => want.contains(r._1)).toDouble / want.size
    }
    per.sum / per.size
  }

  /** Per-layer metrics of a traced run. */
  private def layerMetrics(t: Tracer, metrics: Metrics, db: DataFrame, vecs: Array[Array[Float]],
                           workload: Workload, history: Workload, sample: Workload,
                           sampleTruth: Map[Long, Array[(Long, Float)]],
                           truth: Map[Long, Array[(Long, Float)]], index: PartitionedIndex,
                           setups: Seq[Setup], plainMs: Seq[Double],
                           tracedPasses: Seq[(Double, Span)], reference: EngineRun,
                           baseRdds: Set[Int]): Unit = {
    val sc = spark.sparkContext
    val probe = t.probe
    def med(xs: Seq[Double]): Double = Stats.median(xs)

    // Routing, timed from outside around every query's route call.
    val n = N.toDouble
    var routeNs = 0L
    var parts = 0L
    var routedFrac = 0.0
    for (q <- workload.queries) {
      val tpl = workload.templateById(q.templateId)
      val t0 = System.nanoTime()
      val routed = Adapter.route(index, tpl, q.vec)
      routeNs += System.nanoTime() - t0
      parts += routed.size
      routedFrac += routed.map(Adapter.leafSize(index, _)).sum / n
    }
    metrics("routing.route_ms", "ms", routeNs / 1e6)
    metrics("routing.partitions_per_query", "count", parts.toDouble / workload.size)
    metrics("routing.routed_frac", "ratio", routedFrac / workload.size)
    for (tpl <- Adapter.relatedQSTemplates)
      metrics(s"routing.routed_frac.${tpl.name}", "ratio",
              Adapter.route(index, tpl, workload.queries.head.vec).map(Adapter.leafSize(index, _)).sum / n)

    // Engine work counters.
    val em = reference.metrics
    metrics("engine.tuples_scanned", "count", em.tuplesScanned.toDouble)
    metrics("engine.dist_comps", "count", em.distComps.toDouble)
    metrics("engine.filter_rows", "count", em.filterRows.toDouble)
    metrics("engine.routed_tuples", "count", em.routedTuples.toDouble)
    metrics("engine.candidate_frac", "ratio", em.distComps.toDouble / math.max(1L, em.tuplesScanned))
    metrics("engine.short_results", "count", checker.short(reference).toDouble)
    // The engine's exact path against the benchmark's brute-force oracle:
    // exactly min(k, |matches|) ids per query, each satisfying the template.
    val (exact, exactMs, _) = timed("pass.exhaustive")(Adapter.run(index, workload, Adapter.exhaustive))
    checkPass(exact, sameAsFirst = false)
    op(checker.short(exact) == 0, s"exhaustive pass: ${checker.short(exact)} queries returned fewer than min(k, |matches|) ids")
    metrics("engine.exhaustive_ms", "ms", exactMs)
    metrics("engine.exhaustive_recall", "ratio", recall(exact, truth))

    // Spark, per traced pass (median over passes).
    final case class PassStats(span: Span, js: Seq[SparkProbe.Job], stages: Seq[SparkProbe.Stage])
    val ps = tracedPasses.map { case (_, s) =>
      val js = t.jobsOf(s)
      PassStats(s, js, js.flatMap(probe.stagesOf).groupBy(_.id).values.map(_.head).toSeq)
    }
    def perPass(name: String, unit: String)(f: PassStats => Double): Unit = metrics(name, unit, med(ps.map(f)))
    def scan(p: PassStats) = p.stages.filter(_.shuffleRead == 0)
    def merge(p: PassStats) = p.stages.filter(_.shuffleRead > 0)
    perPass("spark.jobs", "count")(_.js.size.toDouble)
    perPass("spark.stages", "count")(_.stages.size.toDouble)
    perPass("spark.tasks", "count")(_.stages.map(_.tasks).sum.toDouble)
    perPass("spark.shuffle_write_bytes", "bytes")(_.stages.map(_.shuffleWrite).sum.toDouble)
    perPass("spark.shuffle_read_bytes", "bytes")(_.stages.map(_.shuffleRead).sum.toDouble)
    perPass("spark.result_bytes", "bytes")(_.stages.map(_.resultBytes).sum.toDouble)
    perPass("spark.scan_stage.wall_ms", "ms")(scan(_).map(_.wallMs).sum.toDouble)
    perPass("spark.scan_stage.run_ms_sum", "ms")(scan(_).map(_.runMs).sum.toDouble)
    perPass("spark.scan_stage.cpu_ms_sum", "ms")(scan(_).map(_.cpuNs).sum / 1e6)
    perPass("spark.scan_stage.task_ms_max", "ms")(p => scan(p).map(_.taskMsMax).foldLeft(0L)(math.max).toDouble)
    perPass("spark.merge_stage.wall_ms", "ms")(merge(_).map(_.wallMs).sum.toDouble)
    perPass("spark.merge_stage.run_ms_sum", "ms")(merge(_).map(_.runMs).sum.toDouble)
    perPass("spark.gc_ms", "ms")(_.stages.map(_.gcMs).sum.toDouble)
    perPass("driver.pre_job_ms", "ms")(p => p.js.map(_.start).min - p.span.start)
    perPass("driver.post_job_ms", "ms")(p => p.span.end - p.js.map(_.end).max)
    perPass("driver.self_ms", "ms")(p => Tracer.selfMs(p.span, p.js))

    // Set-up components.
    metrics("setup.build_ms", "ms", med(setups.map(_.buildMs)))
    metrics("setup.tune_ms", "ms", med(setups.map(_.tuneMs)))
    metrics("setup.tune_jobs", "count", med(setups.map(s => t.jobsUnder(s.tune.get).size.toDouble)))
    metrics("pass.cold_ms", "ms", med(setups.map(_.coldMs)))

    // Build internals, from the set-up builds' spans and jobs.
    val builds = setups.map(_.build.get)
    metrics("build.driver_ms", "ms", med(builds.map(b => Tracer.selfMs(b, t.jobsUnder(b)))))
    metrics("build.spark_jobs", "count", med(builds.map(b => t.jobsUnder(b).size.toDouble)))
    metrics("build.shuffle_bytes", "bytes",
            med(builds.map(b => t.jobsUnder(b).flatMap(probe.stagesOf).map(_.shuffleWrite).sum.toDouble)))
    val leaves = Adapter.leafSizes(index)
    metrics("build.partitions", "count", leaves.length.toDouble)
    metrics("build.leaf_rows_min", "count", leaves.min.toDouble)
    metrics("build.leaf_rows_max", "count", leaves.max.toDouble)
    // Per-leaf IVF training and assignment, membership read from `__part`.
    // With a single leaf (lp-batch) its training is the full-N k-means.
    val partOf = Adapter.partOfRows(index)
    val byLeaf = partOf.indices.groupBy(partOf(_)).toSeq.sortBy(_._1)
    var trainMs = 0.0
    val (_, leafMs, _) = timed("build.leaf_ivf") {
      for ((leaf, rows) <- byLeaf) {
        val lv = rows.map(vecs).toArray
        val (cents, ms, _) = timed("ivf.train")(Adapter.ivfTrain(lv, 7 + leaf))
        trainMs = ms
        lv.foreach(Adapter.ivfAssign(_, cents))
      }
    }
    val fullMs =
      if (byLeaf.size == 1) trainMs
      else timed("build.kmeans_full")(Adapter.ivfTrain(vecs, 7))._2
    metrics("build.kmeans_full_ms", "ms", fullMs)
    metrics("build.leaf_ivf_ms", "ms", leafMs)

    // Storage of the resident index (Spark's block manager).
    val vectorBytes = N * D * 4.0
    val cached = sc.getRDDStorageInfo.filterNot(r => baseRdds.contains(r.id)).map(r => r.memSize + r.diskSize).sum
    metrics("storage.index_cached_mb", "MB", cached / 1048576.0)
    metrics("storage.bytes_per_vector_byte", "ratio", cached / vectorBytes)

    // Persisted format: write, then read back through format("hqi").
    val dir = new File(s"${o.stateDir}/index-${o.workload}-${o.seed}-${ProcessHandle.current().pid()}")
    deleteTree(dir)
    val (_, writeMs, _) = timed("persist.write")(Adapter.write(index, dir.getPath))
    val bytes = Option(dir.listFiles()).map(_.map(_.length).sum).getOrElse(0L).toDouble
    metrics("persist.ms", "ms", writeMs)
    metrics("persist.bytes", "bytes", bytes)
    metrics("persist.bytes_per_vector_byte", "ratio", bytes / vectorBytes)
    val stored = Adapter.read(spark, dir.getPath)
    val rows = Adapter.rowCount(stored)
    op(rows == N, s"persisted index holds $rows rows, not $N")
    for (tpl <- Adapter.relatedQSTemplates) {
      val got = Adapter.filteredCount(stored, tpl)
      val want = Adapter.filteredCount(db, tpl)
      op(got == want, s"format(hqi) read with ${tpl.name} pushed returned $got rows, not $want")
    }
    deleteTree(dir)

    // PreFilter reference: a single √N-cell IVF (the no-history build; for
    // lp-batch that is the workload's own index) with PreFilter options.
    val flat = if (history.queries.isEmpty) index else Adapter.build(db, Adapter.noHistory(workload), MinSize)
    val preNprobe = Adapter.tune(flat, sample, sampleTruth, base = Adapter.preFilter(Map.empty))
    val preRuns = (0 until RefPasses).map { _ =>
      val (r, ms, _) = timed("ref.prefilter.pass")(Adapter.run(flat, workload, Adapter.preFilter(preNprobe)))
      checkPass(r, sameAsFirst = false)
      (r, ms)
    }
    metrics("ref.prefilter.pass_ms_p50", "ms", med(preRuns.map(_._2)))
    metrics("ref.prefilter.tuples_scanned", "count", preRuns.head._1.metrics.tuplesScanned.toDouble)
    if (flat ne index) Adapter.unpersist(flat)

    // Tracing overhead: alternate passes ran with and without the listener.
    val qpsPlain = workload.size / (med(plainMs) / 1000.0)
    val qpsTraced = workload.size / (med(tracedPasses.map(_._1)) / 1000.0)
    metrics("trace.qps_untraced", "1/s", qpsPlain)
    metrics("trace.qps_traced", "1/s", qpsTraced)
    metrics("trace.overhead_qps", "1/s", qpsPlain - qpsTraced)
  }

  private def deleteTree(f: File): Unit = {
    Option(f.listFiles()).foreach(_.foreach(deleteTree))
    f.delete()
  }
}

object QueryBench {
  val N = 100000L
  val D = 32
  val NQ = 6000
  val MinSize: Int = (N / 64).toInt
  val DataSeed = 21L
  val TuneSeed = 1000003L
  val SetupReps = 2
  val RefPasses = 5
  val TailPct = 75
  val TailName = s"pass_ms_p$TailPct"
}
