package repro.bench

import repro.harness.Experiments
import repro.jobs.JobSession

/** Bench-wide scale: the jobs' scale, so the suite can be smoke-tested
  * quickly from the environment (e.g. REPRO_BENCH_N=20000 sbt "bench/test").
  */
object BenchScale {
  val scale: Experiments.Scale = JobSession.scale()
}
