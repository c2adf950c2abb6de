package repro.jobs

import org.apache.spark.sql.SparkSession

import repro.harness.Experiments

/** Shared session bootstrap for the spark-submit entrypoints. */
object JobSession {
  def create(name: String): SparkSession =
    SparkSession.builder()
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName(name)
      .config("spark.sql.shuffle.partitions", sys.env.getOrElse("SPARK_SHUFFLE_PARTITIONS", "64"))
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .getOrCreate()

  /** Bench scale for the jobs and the bench suites, overridable via
    * REPRO_BENCH_N / REPRO_BENCH_D / REPRO_BENCH_NQ. The only reader of
    * these variables.
    */
  def scale(): Experiments.Scale =
    Experiments.Scale(
      n = sys.env.getOrElse("REPRO_BENCH_N", "100000").toLong,
      d = sys.env.getOrElse("REPRO_BENCH_D", "32").toInt,
      nqRelated = sys.env.getOrElse("REPRO_BENCH_NQ", "6000").toInt)
}

/** Table 1: RelatedQS template mix per temporal split + selectivities. */
object Table1Job {
  def main(args: Array[String]): Unit = {
    val spark = JobSession.create("hqi-table1")
    println("== Table 1: query workload characteristics ==")
    println(Experiments.table1(spark, n = JobSession.scale().n).rendered)
    spark.stop()
  }
}

/** Table 2: evaluation dataset inventory (paper vs scaled stand-ins). */
object Table2Job {
  def main(args: Array[String]): Unit = {
    println("== Table 2: evaluation datasets ==")
    println(Experiments.table2(JobSession.scale()))
  }
}

/** Tables 3 and 4: end-to-end slowdown and index generation time vs HQI.
  * Optional args: dataset names to restrict to (e.g. `RelatedQS LP`).
  */
object Table3Job {
  def main(args: Array[String]): Unit = {
    val spark = JobSession.create("hqi-table3")
    val only = if (args.isEmpty) None else Some(args.toSet)
    val res = Experiments.tables3and4(spark, JobSession.scale(), only = only)
    println("== Table 3: slowdown vs HQI @ recall >= 0.8 ==")
    println(res.table3)
    println()
    println("== Table 4: index generation time vs HQI ==")
    println(res.table4)
    spark.stop()
  }
}

/** Table 5: robustness to future queries (HQI trained on t0 only). */
object Table5Job {
  def main(args: Array[String]): Unit = {
    val spark = JobSession.create("hqi-table5")
    println("== Table 5: QPS across temporal splits (HQI trained on t0) ==")
    println(Experiments.table5(spark, JobSession.scale()).rendered)
    spark.stop()
  }
}

/** Build an HQI index over the RelatedQS stand-in and persist it for the
  * custom `hqi` DataSourceV2 (`spark.read.format("hqi").load(path)`).
  */
object BuildIndexJob {
  def main(args: Array[String]): Unit = {
    require(args.nonEmpty, "usage: BuildIndexJob <output-path> [n]")
    val spark = JobSession.create("hqi-build")
    val n = if (args.length > 1) args(1).toLong else JobSession.scale().n
    val db = repro.workload.KGData.entities(spark, n, JobSession.scale().d).cache()
    val history = repro.workload.Templates.relatedQSWorkload(db, 0, 2000)
    val idx = repro.core.engine.IndexBuilder.buildHQI(
      db, repro.workload.KGData.AttrCols, repro.core.vec.Metric.IP, history,
      repro.core.engine.HQIOptions(minSize = 4096))
    repro.core.datasource.HQIStore.write(idx, args(0))
    println(s"wrote HQI index (${idx.numPartitions} partitions, ${idx.totalRows} rows) to ${args(0)}")
    spark.stop()
  }
}
