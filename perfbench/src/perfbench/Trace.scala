package perfbench

import scala.collection.mutable

import org.apache.spark.SparkContext
import org.apache.spark.scheduler._

/** One traced interval. Times are epoch milliseconds (fractional for spans
  * the benchmark records, whole for the ones Spark's listener reports).
  * `parent` 0 is the root.
  */
final case class Span(id: Int, parent: Int, name: String, start: Double, end: Double) {
  def ms: Double = end - start
}

/** Spans recorded in memory around calls into the program, plus the Spark
  * jobs and stages those calls ran, attributed through a local property the
  * benchmark sets for the duration of each span.
  */
final class Tracer(sc: SparkContext) {
  import Tracer._

  private val originMs = System.currentTimeMillis().toDouble
  private val originNs = System.nanoTime()
  private val spans = mutable.ArrayBuffer.empty[Span]
  private var nextId = 1
  private var open = 0
  val probe = new SparkProbe

  sc.addSparkListener(probe)

  def now(): Double = originMs + (System.nanoTime() - originNs) / 1e6

  /** Run `body` inside a span named `name`, child of the innermost open span. */
  def span[T](name: String)(body: => T): (T, Span) = {
    val id = nextId; nextId += 1
    val parent = open
    open = id
    val prevProp = sc.getLocalProperty(SpanProp)
    sc.setLocalProperty(SpanProp, id.toString)
    val start = now()
    try {
      val out = body
      val s = Span(id, parent, name, start, now())
      spans += s
      (out, s)
    } finally {
      sc.setLocalProperty(SpanProp, prevProp)
      open = parent
    }
  }

  /** Detach or re-attach the listener (untraced passes of a traced run). */
  def listening(on: Boolean): Unit =
    if (on) sc.addSparkListener(probe) else sc.removeSparkListener(probe)

  /** Spark jobs started inside span `s` (not inside its child spans). */
  def jobsOf(s: Span): Seq[SparkProbe.Job] = probe.jobs.filter(_.span == s.id)

  /** Jobs started inside `s` or any span nested in it. */
  def jobsUnder(s: Span): Seq[SparkProbe.Job] = {
    val ids = mutable.Set(s.id)
    spans.sortBy(_.id).foreach(c => if (ids.contains(c.parent)) ids += c.id)
    probe.jobs.filter(j => ids.contains(j.span))
  }

  /** Every span, with listener jobs as children of their span and stages
    * as children of their job, as JSON lines. `self_ms` is the duration
    * minus what the children cover.
    */
  def dump(): Seq[String] = {
    val out = mutable.ArrayBuffer.empty[String]
    def line(id: String, parent: String, name: String, start: Double, end: Double,
             children: Seq[(Double, Double)]): Unit = {
      val self = end - start - covered(start, end, children)
      out += f"""{"id":"$id","parent":"$parent","name":"$name","start_ms":$start%.3f,"end_ms":$end%.3f,"self_ms":$self%.3f}"""
    }
    val jobs = probe.jobs
    for (s <- spans.sortBy(_.id)) {
      val children = spans.filter(_.parent == s.id).map(c => (c.start, c.end)) ++
        jobs.filter(_.span == s.id).map(j => (j.start.toDouble, j.end.toDouble))
      line(s"s${s.id}", s"s${s.parent}", s.name, s.start, s.end, children.toSeq)
    }
    for (j <- jobs) {
      val stages = probe.stagesOf(j)
      line(s"j${j.id}", s"s${j.span}", "spark.job", j.start.toDouble, j.end.toDouble,
           stages.map(st => (st.submit.toDouble, st.complete.toDouble)))
      for (st <- stages)
        line(s"st${st.id}", s"j${j.id}", if (st.shuffleRead > 0) "spark.stage.merge" else "spark.stage.scan",
             st.submit.toDouble, st.complete.toDouble, Nil)
    }
    out.toSeq
  }
}

object Tracer {
  val SpanProp = "perfbench.span"

  /** Milliseconds of [start, end] covered by the union of `parts`. */
  def covered(start: Double, end: Double, parts: Seq[(Double, Double)]): Double = {
    var total = 0.0
    var reach = start
    for ((a, b) <- parts.map { case (a, b) => (math.max(a, start), math.min(b, end)) }.sortBy(_._1)
         if b > a) {
      if (b > reach) { total += b - math.max(a, reach); reach = b }
    }
    total
  }

  /** A span's self time: its duration minus what its Spark jobs cover. */
  def selfMs(s: Span, jobs: Seq[SparkProbe.Job]): Double =
    s.ms - covered(s.start, s.end, jobs.map(j => (j.start.toDouble, j.end.toDouble)))
}

/** Listener that keeps job, stage and task totals in memory. */
final class SparkProbe extends SparkListener {
  import SparkProbe._

  private val jobById = mutable.LinkedHashMap.empty[Int, Job]
  private val stageById = mutable.HashMap.empty[Int, Stage]
  @volatile private var lastEventNs = System.nanoTime()

  private def touch(): Unit = lastEventNs = System.nanoTime()

  override def onJobStart(e: SparkListenerJobStart): Unit = synchronized {
    val span = Option(e.properties).flatMap(p => Option(p.getProperty(Tracer.SpanProp))).map(_.toInt).getOrElse(0)
    jobById(e.jobId) = Job(e.jobId, span, e.time, -1L, e.stageIds)
    touch()
  }

  override def onJobEnd(e: SparkListenerJobEnd): Unit = synchronized {
    jobById.get(e.jobId).foreach(_.end = e.time)
    touch()
  }

  override def onStageCompleted(e: SparkListenerStageCompleted): Unit = synchronized {
    val info = e.stageInfo
    val st = stageById.getOrElseUpdate(info.stageId, new Stage(info.stageId))
    st.submit = info.submissionTime.getOrElse(0L)
    st.complete = info.completionTime.getOrElse(0L)
    st.done = true
    touch()
  }

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = synchronized {
    val st = stageById.getOrElseUpdate(e.stageId, new Stage(e.stageId))
    st.tasks += 1
    st.taskMsMax = math.max(st.taskMsMax, e.taskInfo.duration)
    val m = e.taskMetrics
    if (m != null) {
      st.runMs += m.executorRunTime
      st.cpuNs += m.executorCpuTime
      st.gcMs += m.jvmGCTime
      st.resultBytes += m.resultSize
      st.shuffleRead += m.shuffleReadMetrics.totalBytesRead
      st.shuffleWrite += m.shuffleWriteMetrics.bytesWritten
    }
    touch()
  }

  def jobs: Seq[Job] = synchronized(jobById.values.toSeq)

  /** Completed stages of a job (skipped stages never complete). */
  def stagesOf(j: Job): Seq[Stage] = synchronized(j.stageIds.flatMap(stageById.get).filter(_.done))

  /** Block until every started job has ended and neither the bus nor this
    * call has seen anything for `quietMs`, so totals read afterwards are
    * complete. Every call waits at least `quietMs`, so the passes it
    * separates all start from the same idle state.
    */
  def awaitQuiet(quietMs: Long = 200, timeoutMs: Long = 10000): Unit = {
    val start = System.nanoTime()
    val deadline = start + timeoutMs * 1000000L
    def settled: Boolean = synchronized(jobById.values.forall(_.end >= 0)) &&
      System.nanoTime() - math.max(lastEventNs, start) > quietMs * 1000000L
    while (!settled && System.nanoTime() < deadline) Thread.sleep(20)
  }
}

object SparkProbe {
  final case class Job(id: Int, span: Int, start: Long, var end: Long, stageIds: Seq[Int])

  final class Stage(val id: Int) {
    var submit = 0L
    var complete = 0L
    var done = false
    var tasks = 0
    var taskMsMax = 0L
    var runMs = 0L
    var cpuNs = 0L
    var gcMs = 0L
    var resultBytes = 0L
    var shuffleRead = 0L
    var shuffleWrite = 0L
    def wallMs: Long = complete - submit
  }
}
