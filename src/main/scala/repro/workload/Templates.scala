package repro.workload

import org.apache.spark.sql.DataFrame
import scala.util.Random

import repro.core.qdtree.Pred
import repro.core.qdtree.Pred._
import repro.core.vec.Metric
import repro.data.VectorData

/** The RelatedQS predicate templates T1–T10 and the LP templates, sized to
  * reproduce Table 1.
  *
  * Each RelatedQS template is a conjunction of type / IN / IS NOT NULL
  * predicates plus a popularity cutoff; the cutoff is derived analytically
  * from [[KGData]]'s generation probabilities so the template's selectivity
  * lands on Table 1's "feasible KG entities" column (T1 0.005% … T10 60%).
  * Measured selectivities are re-checked empirically by Table1Bench.
  */
object Templates {

  import KGData._

  /** Table 1 selectivity targets for T1..T10 (fraction of all entities). */
  val SelTargets: Array[Double] =
    Array(5e-5, 1e-3, 1e-3, 5e-3, 5e-3, 1e-2, 2.5e-2, 0.30, 0.58, 0.60)

  /** Table 1 workload shares (%) of T1..T10 for splits t0..t3. */
  val SplitFreqs: Array[Array[Int]] = Array(
    Array(15, 26, 1, 24, 11, 2, 3, 15, 1, 4), // t0
    Array(17, 26, 1, 20, 12, 2, 3, 15, 1, 4), // t1
    Array(17, 26, 1, 20, 11, 2, 4, 15, 1, 4), // t2
    Array(18, 26, 1, 20, 12, 2, 3, 14, 1, 4)) // t3

  private def typeP(t: String): Double = TypeFreq.toMap.apply(t)
  private def cut(target: Double, mass: Double): Double = 1.0 - target / mass

  /** RelatedQS templates (ids 1..10). */
  val relatedQS: Seq[Template] = {
    val t1Mass = typeP("person") * HeightNN("person")
    val t2Mass = typeP("artist") * GenreNN("artist")
    val t3Mass = typeP("song") * GenreNN("song") + typeP("film") * GenreNN("film")
    val t4Mass = typeP("person") * BirthYearNN("person")
    val t5Mass = typeP("song") * GenreNN("song")
    val t6Mass = typeP("artist") * CountryNN("artist") + typeP("person") * CountryNN("person")
    val t7Mass = typeP("film")
    val t8Mass = typeP("person") + typeP("song") + typeP("artist")
    Seq(
      Template(1, "T1", Seq(StrEq("etype", "person"), NotNull("height"),
                            NumCmp("popularity", Ge, cut(SelTargets(0), t1Mass)))),
      Template(2, "T2", Seq(StrEq("etype", "artist"), NotNull("genre"),
                            NumCmp("popularity", Ge, cut(SelTargets(1), t2Mass)))),
      Template(3, "T3", Seq(In("etype", Set("song", "film")), NotNull("genre"),
                            NumCmp("popularity", Ge, cut(SelTargets(2), t3Mass)))),
      Template(4, "T4", Seq(StrEq("etype", "person"), NotNull("birth_year"),
                            NumCmp("popularity", Ge, cut(SelTargets(3), t4Mass)))),
      Template(5, "T5", Seq(StrEq("etype", "song"), NotNull("genre"),
                            NumCmp("popularity", Ge, cut(SelTargets(4), t5Mass)))),
      Template(6, "T6", Seq(In("etype", Set("artist", "person")), NotNull("country"),
                            NumCmp("popularity", Ge, cut(SelTargets(5), t6Mass)))),
      Template(7, "T7", Seq(StrEq("etype", "film"),
                            NumCmp("popularity", Ge, cut(SelTargets(6), t7Mass)))),
      Template(8, "T8", Seq(In("etype", Set("person", "song", "artist")),
                            NumCmp("popularity", Ge, cut(SelTargets(7), t8Mass)))),
      Template(9, "T9", Seq(NumCmp("popularity", Gt, 1.0 - SelTargets(8)))),
      Template(10, "T10", Seq(NumCmp("popularity", Lt, SelTargets(9)))))
  }

  /** LP templates (ids 101..): one type predicate per entity type — the
    * paper's link-prediction workload constrains only the entity type.
    */
  val lp: Seq[Template] =
    TypeFreq.zipWithIndex.map { case ((t, _), i) => Template(101 + i, s"LP-$t", Seq(StrEq("etype", t))) }

  /** Per-dimension noise between a query vector and the entity it is
    * sampled near.
    */
  val QueryNoise = 0.1

  /** Entities per template (lowest ids first) that query vectors are
    * sampled near.
    */
  val VecPoolCap = 500

  /** Build a workload by sampling, per template, query vectors near entities
    * that *satisfy* the template (the paper's queries reference real KG
    * entities, so query vectors correlate with their filters). Falls back to
    * arbitrary entities if a template matches nothing at this scale. KG
    * queries rank by inner product.
    */
  def sampleWorkload(db: DataFrame, templates: Seq[Template], weights: Seq[Int],
                     numQueries: Int, k: Int, seed: Long,
                     qidBase: Long = 0L): Workload = {
    require(templates.length == weights.length)
    val rnd = new Random(seed)

    def collectVecs(df: DataFrame): Array[Array[Float]] =
      df.orderBy("id").limit(VecPoolCap).select("vec").collect()
        .map(_.getSeq[Float](0).toArray)

    val fallback = collectVecs(db)
    val pools: Map[Int, Array[Array[Float]]] = templates.map { t =>
      val pool = collectVecs(db.filter(Pred.and(t.preds)))
      t.id -> (if (pool.nonEmpty) pool else fallback)
    }.toMap

    // Proportional allocation, at least one query per template with weight>0.
    val totalW = weights.sum.toDouble
    val counts = weights.map(w => math.max(if (w > 0) 1 else 0, math.round(w / totalW * numQueries).toInt))

    val queries = scala.collection.mutable.ArrayBuffer.empty[HybridQuery]
    var qid = qidBase
    for ((t, c) <- templates.zip(counts); _ <- 0 until c) {
      val pool = pools(t.id)
      val base = pool(rnd.nextInt(pool.length))
      val vec = VectorData.sampleNear(base, QueryNoise, rnd)
      queries += HybridQuery(qid, t.id, vec)
      qid += 1
    }
    Workload(templates, queries.toIndexedSeq, k, Metric.IP)
  }

  /** RelatedQS workload for temporal split `split` ∈ 0..3 (Table 1 mix). */
  def relatedQSWorkload(db: DataFrame, split: Int, numQueries: Int, k: Int = 10,
                        seed: Long = 31): Workload =
    sampleWorkload(db, relatedQS, SplitFreqs(split).toSeq, numQueries, k,
                   seed + split, qidBase = split.toLong * 10_000_000L)

  /** LP workload (no historical log; type-only filters, frequencies follow
    * the entity-type marginal).
    */
  def lpWorkload(db: DataFrame, numQueries: Int, k: Int = 10, seed: Long = 47): Workload = {
    val weights = TypeFreq.map { case (_, p) => math.max(1, math.round(p * 100).toInt) }
    sampleWorkload(db, lp, weights, numQueries, k, seed, qidBase = 500_000_000L)
  }
}
