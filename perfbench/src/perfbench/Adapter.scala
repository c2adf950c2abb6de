package perfbench

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions.col

import repro.core.datasource.HQIStore
import repro.core.engine._
import repro.core.ivf.IVF
import repro.core.qdtree.Pred
import repro.core.vec.Metric
import repro.jobs.JobSession
import repro.workload.{KGData, Templates, Template, Workload}

/** The benchmark's only call surface into the program. Every other file of
  * the benchmark goes through here, so an API change in the program touches
  * this file alone.
  */
object Adapter {

  val K = 10
  val TargetRecall = 0.8
  val TunePerTemplate = 25

  /** The session the repo's jobs use (shuffle partitions 64, broadcast joins
    * off); the master comes from `SPARK_MASTER`, which `run.py` sets.
    */
  def session(): SparkSession = JobSession.create("perfbench")

  /** KG entity stand-in, cached and materialized. */
  def entities(spark: SparkSession, n: Long, d: Int, seed: Long): DataFrame = {
    val db = KGData.entities(spark, n, d, seed = seed).cache()
    db.count()
    db
  }

  def relatedQS(db: DataFrame, nq: Int, seed: Long): Workload =
    Templates.relatedQSWorkload(db, split = 0, numQueries = nq, k = K, seed = seed)

  def lp(db: DataFrame, nq: Int, seed: Long): Workload =
    Templates.lpWorkload(db, numQueries = nq, k = K, seed = seed)

  def relatedQSTemplates: Seq[Template] = Templates.relatedQS

  def noHistory(w: Workload): Workload = w.copy(queries = IndexedSeq.empty)

  /** Ids satisfying a template, computed by Catalyst over the source rows. */
  def matchingIds(db: DataFrame, t: Template): Array[Long] =
    db.filter(Pred.and(t.preds)).select("id").collect().map(_.getLong(0))

  def filteredCount(df: DataFrame, t: Template): Long = df.filter(Pred.and(t.preds)).count()

  def vectors(db: DataFrame): Array[Array[Float]] =
    db.select("vec").orderBy("id").collect().map(_.getSeq[Float](0).toArray)

  def build(db: DataFrame, history: Workload, minSize: Int): PartitionedIndex =
    IndexBuilder.buildHQI(db, KGData.AttrCols, Metric.IP, history, HQIOptions(minSize = minSize, m = 0))

  def unpersist(index: PartitionedIndex): Unit = index.unpersist()

  def leafSizes(index: PartitionedIndex): Array[Long] = index.leaves.map(_.size)

  def tune(index: PartitionedIndex, sample: Workload, truth: Map[Long, Array[(Long, Float)]],
           base: EngineOptions = hqi(Map.empty)): Map[Int, Int] =
    Tuning.tuneNprobe(index, sample, truth, TargetRecall, K, base = base).nprobe

  /** HQI options: the `EngineOptions` defaults with per-template nprobe. */
  def hqi(nprobe: Map[Int, Int]): EngineOptions = EngineOptions(k = K, nprobe = nprobe)

  /** The PreFilter baseline (Strategy B) as the repo's harness configures it. */
  def preFilter(nprobe: Map[Int, Int]): EngineOptions =
    EngineOptions(k = K, nprobe = nprobe, vectorBatching = false, eagerBitmap = true)

  def exhaustive: EngineOptions = EngineOptions(k = K, exhaustive = true)

  def run(index: PartitionedIndex, w: Workload, opts: EngineOptions): EngineRun =
    BatchEngine.run(index, w, opts)

  def route(index: PartitionedIndex, t: Template, vec: Array[Float]): Seq[Int] = index.route(t, vec)

  def leafSize(index: PartitionedIndex, part: Int): Long = index.leafById(part).size

  /** `__part` of every row, in id order. */
  def partOfRows(index: PartitionedIndex): Array[Int] =
    index.data.select(IndexBuilder.PartCol).orderBy("id").collect().map(_.getInt(0))

  def ivfTrain(vecs: Array[Array[Float]], seed: Long): Array[Array[Float]] = IVF.train(vecs, seed)

  def ivfAssign(vec: Array[Float], centroids: Array[Array[Float]]): Int = IVF.assign(vec, centroids)

  def write(index: PartitionedIndex, path: String): Unit = HQIStore.write(index, path)

  def read(spark: SparkSession, path: String): DataFrame = spark.read.format("hqi").load(path)

  def rowCount(df: DataFrame): Long = df.select(col("id")).count()
}
