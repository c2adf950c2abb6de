package repro.workload

import org.apache.spark.sql.{DataFrame, SparkSession}
import scala.util.Random

import repro.data.VectorData

/** Synthetic knowledge-graph entity database standing in for the paper's
  * industrial KG (Table 2's RelatedQS / LP rows).
  *
  * Reproduces the two workload properties the paper's optimizations rely on:
  *   - attribute/vector correlation: each entity type owns a handful of
  *     Gaussian mixture components, so vectors of same-typed entities cluster
  *     together (§2.3's "Billie Jean is near other songs");
  *   - type-dependent attribute occurrence: which attributes are non-NULL
  *     depends on the entity type (§2.1's last observation).
  *
  * Columns: `id, vec, etype, height, genre, country, birth_year, popularity`
  * (nullable attributes are Options). Deterministic in (n, d, seed).
  */
object KGData {

  val AttrCols: Seq[String] = Seq("etype", "height", "genre", "country", "birth_year", "popularity")

  /** Entity-type marginal distribution. */
  val TypeFreq: Seq[(String, Double)] = Seq(
    "person" -> 0.20, "song" -> 0.25, "artist" -> 0.10, "film" -> 0.10,
    "city" -> 0.05, "org" -> 0.05, "other" -> 0.25)

  /** P(attribute non-NULL | type); used analytically when deriving the
    * popularity cutoffs that give templates their Table 1 selectivities.
    */
  val HeightNN: Map[String, Double] = Map("person" -> 0.5).withDefaultValue(0.0)
  val GenreNN: Map[String, Double] =
    Map("song" -> 0.95, "artist" -> 0.9, "film" -> 0.9).withDefaultValue(0.0)
  val CountryNN: Map[String, Double] =
    Map("person" -> 1.0, "artist" -> 1.0, "city" -> 1.0).withDefaultValue(0.0)
  val BirthYearNN: Map[String, Double] =
    Map("person" -> 0.8, "song" -> 0.9, "film" -> 0.95).withDefaultValue(0.0)

  val Genres: Seq[String] = Seq("pop", "rock", "jazz", "rap", "folk", "classical", "electro", "metal")
  val Countries: Seq[String] = (0 until 20).map(i => f"country$i%02d")

  /** Mixture components per entity type (type-cluster correlation). */
  val SubclustersPerType = 4

  /** Per-dimension spread of a vector around its mixture component. */
  val Spread = 0.25

  final case class Entity(id: Long, vec: Array[Float], etype: String,
                          height: Option[Double], genre: Option[String],
                          country: Option[String], birth_year: Option[Double],
                          popularity: Double)

  private val typeNames = TypeFreq.map(_._1).toArray
  private val typeCum: Array[Double] = TypeFreq.map(_._2).scanLeft(0.0)(_ + _).tail.toArray

  private def pickType(u: Double): Int = {
    var i = 0
    while (i < typeCum.length - 1 && u >= typeCum(i)) i += 1
    i
  }

  def generateOne(id: Long, centers: Array[Array[Float]], seed: Long): Entity = {
    val rnd = new Random(VectorData.mix(seed, id))
    val ti = pickType(rnd.nextDouble())
    val t = typeNames(ti)
    val sub = rnd.nextInt(SubclustersPerType)
    val vec = VectorData.sampleNear(centers(ti * SubclustersPerType + sub), Spread, rnd)
    val height = if (rnd.nextDouble() < HeightNN(t)) Some(170.0 + rnd.nextGaussian() * 15.0) else None
    val genre = if (rnd.nextDouble() < GenreNN(t)) Some(Genres(rnd.nextInt(Genres.length))) else None
    val country = if (rnd.nextDouble() < CountryNN(t)) Some(Countries(rnd.nextInt(Countries.length))) else None
    val birthYear = if (rnd.nextDouble() < BirthYearNN(t)) Some(1900.0 + rnd.nextInt(121)) else None
    Entity(id, vec, t, height, genre, country, birthYear, rnd.nextDouble())
  }

  /** The entity DataFrame: `n` rows, vectors of dimension `d`. */
  def entities(spark: SparkSession, n: Long, d: Int, seed: Long = 21): DataFrame = {
    import spark.implicits._
    val centers = VectorData.makeCenters(typeNames.length * SubclustersPerType, d, seed)
    spark.range(n).map(id => generateOne(id, centers, seed))
      .toDF("id", "vec", "etype", "height", "genre", "country", "birth_year", "popularity")
  }
}
