package repro.core

import java.io.File
import java.nio.file.Files

import org.apache.commons.io.FileUtils
import org.apache.spark.sql.Row
import org.apache.spark.sql.types._
import org.scalacheck.{Gen, Prop, Properties, Test}
import org.scalacheck.Prop.propBoolean
import scala.util.Random

import repro.SparkSpec
import repro.core.datasource.HQIStore
import repro.core.engine._
import repro.core.qdtree.Pred
import repro.core.vec.Metric
import repro.workload.{HybridQuery, Template, Workload}

/** One order of attribute values: Range buckets and routes, engine filters of
  * every layout and `format("hqi")` pushdown all select what Catalyst selects,
  * on tables whose range attribute mixes NaN, ±∞, −0.0, nulls and duplicates.
  */
object ValueOrderProps extends Properties("order") {

  // Each case builds three indexes and runs four passes.
  override def overrideParameters(p: Test.Parameters): Test.Parameters = p.withMinSuccessfulTests(8)

  private val D = 2

  private val value: Gen[java.lang.Double] = Gen.frequency(
    1 -> Gen.const(null),
    2 -> Gen.oneOf(Double.NaN, Double.PositiveInfinity, Double.NegativeInfinity, -0.0, 0.0).map(Double.box),
    2 -> Gen.oneOf(-1.0, 0.25, 0.5, 1.0).map(Double.box),
    1 -> Gen.chooseNum(-2.0, 2.0).map(Double.box))

  private val ops = Seq(Pred.Lt, Pred.Le, Pred.Gt, Pred.Ge, Pred.EqOp)

  /** `preds` are (operator, constant choice) pairs per template; a choice
    * indexes the cuts, then the data's values, then NaN and ±∞.
    */
  private final case class Case(a: List[java.lang.Double], numParts: Int,
                                preds: List[List[(Pred.CmpOp, Int)]], seed: Long)

  private val cases: Gen[Case] = for {
    n <- Gen.chooseNum(8, 48)
    a <- Gen.listOfN(n, value)
    numParts <- Gen.chooseNum(1, 4)
    pred = Gen.zip(Gen.oneOf(ops), Gen.chooseNum(0, 1000))
    preds <- Gen.chooseNum(1, 4).flatMap(Gen.listOfN(_, Gen.chooseNum(1, 2).flatMap(Gen.listOfN(_, pred))))
    seed <- Gen.long
  } yield Case(a, numParts, preds, seed)

  private val schema = StructType(Seq(
    StructField("id", LongType, nullable = false),
    StructField("vec", ArrayType(FloatType, containsNull = false), nullable = false),
    StructField("a", DoubleType, nullable = true)))

  property("Range routes, engine passes and format(\"hqi\") select Catalyst's rows") =
    Prop.forAll(cases) { c =>
      val spark = SparkSpec.shared
      val rnd = new Random(c.seed)
      val n = c.a.length
      def vec() = Array.fill(D)(rnd.nextFloat())
      val rows = c.a.zipWithIndex.map { case (v, i) => Row(i.toLong, vec().toSeq, v) }
      val db = spark.createDataFrame(spark.sparkContext.parallelize(rows, 2), schema)

      val range = IndexBuilder.buildRange(db, Seq("a"), Metric.L2, "a", c.numParts)
      val Routing.ByRange(_, bounds) = range.routing: @unchecked
      val consts = bounds.tail.map(_._1) ++ c.a.filter(_ != null).map(_.doubleValue) ++
        Seq(Double.NaN, Double.PositiveInfinity, Double.NegativeInfinity)
      val templates = c.preds.zipWithIndex.map { case (ps, t) =>
        Template(t, s"t$t", ps.map { case (op, i) => Pred.NumCmp("a", op, consts(i % consts.length)) })
      }
      val queries = (0 until 2 * templates.size).map(q => HybridQuery(q.toLong, q % templates.size, vec()))
      val w = Workload(templates, queries, n, Metric.L2)
      val flat = IndexBuilder.buildFlat(db, Seq("a"), Metric.L2)
      val hqi = IndexBuilder.buildHQI(db, Seq("a"), Metric.L2, w, HQIOptions(minSize = 4))
      val dir = Files.createTempDirectory("hqi-order").toString
      HQIStore.write(range, dir)
      val stored = spark.read.format("hqi").load(dir)
      try {
        val matching = templates.map { t =>
          t.id -> db.filter(Pred.and(t.preds)).select("id").collect().map(_.getLong(0)).toSet
        }.toMap
        def ids(name: String, r: EngineRun): Prop = Prop.all(queries.map { q =>
          val got = r.results.getOrElse(q.qid, Array.empty).map(_._1).toSet
          (got == matching(q.templateId)) :| s"$name, qid ${q.qid} ${templates(q.templateId).preds}: $got"
        }: _*)
        def probeAll(idx: PartitionedIndex) =
          BatchEngine.run(idx, w, EngineOptions(k = n, defaultNprobe = idx.leaves.map(_.centroids.length).sum))
        // Every pass runs here, before the indexes are dropped; Prop's
        // combinators would run them later.
        val passes = Seq("exhaustive" -> BatchEngine.run(flat, w, EngineOptions(k = n, exhaustive = true)),
                         "flat" -> probeAll(flat), "HQI" -> probeAll(hqi), "Range" -> probeAll(range))
        val covered = templates.map { t =>
          val parts = range.data.filter(Pred.and(t.preds)).select(IndexBuilder.PartCol).collect().map(_.getInt(0)).toSet
          val routed = range.routing.route(t.preds, None, range.numPartitions).toSet
          parts.subsetOf(routed) :| s"${t.preds}: rows in $parts, routed $routed, bounds $bounds"
        }
        val counts = templates.map { t =>
          val got = stored.filter(Pred.and(t.preds)).count()
          (got == matching(t.id).size.toLong) :| s"${t.preds}: format(hqi) counts $got"
        }
        Prop.all(covered ++ counts ++ passes.map { case (name, r) => ids(name, r) }: _*)
      } finally {
        range.unpersist(); flat.unpersist(); hqi.unpersist()
        FileUtils.deleteDirectory(new File(dir))
      }
    }
}
