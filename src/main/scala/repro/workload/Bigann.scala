package repro.workload

import org.apache.spark.sql.{DataFrame, SparkSession}
import scala.util.Random

import repro.core.qdtree.Pred._
import repro.core.vec.Metric
import repro.data.VectorData

/** BIGANN-style benchmark stand-ins (Table 2's SIFT-100M / MSTuring-100M /
  * YandexT2I-100M rows) with the paper's synthetic-attribute protocol
  * (§6.1): two random float attributes A and B, and 20 range predicates —
  * 10 per attribute, predicate i selecting a 2⁻ⁱ fraction, i ∈ [0, 9]. The
  * query log is the Cartesian product of the 20 filters with the n_q query
  * vectors, giving 20·n_q hybrid queries.
  */
object Bigann {

  val AttrCols: Seq[String] = Seq("a", "b")

  /** Mixture components, and each vector's per-dimension spread around its
    * component.
    */
  val NClusters = 64
  val Spread = 0.25

  /** Dataset: Gaussian-mixture vectors plus uniform attributes A, B. */
  def dataset(spark: SparkSession, n: Long, d: Int, seed: Long = 51): DataFrame = {
    import spark.implicits._
    val centers = VectorData.makeCenters(NClusters, d, seed)
    spark.range(n).map { id =>
      val rnd = new Random(VectorData.mix(seed, id))
      val c = rnd.nextInt(centers.length)
      val vec = VectorData.sampleNear(centers(c), Spread, rnd)
      (id, vec, rnd.nextDouble(), rnd.nextDouble())
    }.toDF("id", "vec", "a", "b")
  }

  /** 20 templates: ids 1..10 = `a < 2⁻⁽ⁱ⁻¹⁾`, ids 11..20 = `b < 2⁻⁽ⁱ⁻¹¹⁾`. */
  val templates: Seq[Template] =
    (0 until 10).map(i => Template(1 + i, s"A<2^-$i", Seq(NumCmp("a", Lt, math.pow(2.0, -i))))) ++
    (0 until 10).map(i => Template(11 + i, s"B<2^-$i", Seq(NumCmp("b", Lt, math.pow(2.0, -i)))))

  /** Query vectors: `nq` fresh samples from the same mixture (held-out, as
    * BIGANN ships query sets drawn from the data distribution).
    */
  def queryVectors(nq: Int, d: Int, seed: Long = 51): Array[Array[Float]] = {
    val centers = VectorData.makeCenters(NClusters, d, seed)
    val rnd = new Random(seed * 31 + 7)
    Array.fill(nq) {
      val c = rnd.nextInt(centers.length)
      VectorData.sampleNear(centers(c), Spread, rnd)
    }
  }

  /** The full workload: Cartesian product of all 20 filters × nq vectors,
    * each a top-10 query (§6.1).
    */
  def workload(nq: Int, d: Int, metric: Metric = Metric.L2, seed: Long = 51): Workload = {
    val qvecs = queryVectors(nq, d, seed)
    val queries = for {
      (t, ti) <- templates.zipWithIndex
      (v, vi) <- qvecs.zipWithIndex
    } yield HybridQuery(ti.toLong * 1_000_000L + vi, t.id, v)
    Workload(templates, queries.toIndexedSeq, 10, metric)
  }
}
