package repro.core

import org.apache.spark.sql.{DataFrame, Row}
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types._
import scala.util.Random

import repro.{Oracle, SparkSpec}
import repro.core.engine._
import repro.core.qdtree.Pred
import repro.core.qdtree.Pred._
import repro.core.vec.Metric
import repro.workload.{HybridQuery, Template, Workload}

/** DuckDB oracle checks for the batch hybrid-query semantics (Definition 3).
  *
  * Vectors live on a 1/8 grid so Spark's float kernels and DuckDB's double
  * arithmetic produce bit-identical scores; ties are broken by id on both
  * sides, making top-k results exactly comparable.
  */
class OracleSpec extends SparkSpec {

  private val D = 4
  private val N = 300

  /** (id, x0..x3, etype, pop) with grid-valued vectors; pop is NULL ~20%. */
  private lazy val vdb: DataFrame = {
    val rnd = new Random(42)
    val types = Array("person", "song", "film")
    val rows = (0 until N).map { i =>
      val xs = Array.fill(D)((rnd.nextInt(65) - 32) / 8.0)
      val pop: java.lang.Double = if (rnd.nextDouble() < 0.8) rnd.nextInt(5) / 4.0 else null
      Row.fromSeq(i.toLong +: xs.toSeq :+ types(rnd.nextInt(3)) :+ pop)
    }
    val schema = StructType(
      StructField("id", LongType, nullable = false) +:
      (0 until D).map(j => StructField(s"x$j", DoubleType, nullable = false)) :+
      StructField("etype", StringType, nullable = false) :+
      StructField("pop", DoubleType, nullable = true))
    val df = spark.createDataFrame(spark.sparkContext.parallelize(rows, 4), schema)
    df.cache(); df.count(); df
  }

  /** The same data shaped for the engine: vec ARRAY<FLOAT> + attrs. */
  private lazy val engineDb: DataFrame = {
    val vecCol = array((0 until D).map(j => col(s"x$j").cast(FloatType)): _*).as("vec")
    val df = vdb.select(col("id"), vecCol, col("etype"), col("pop")).cache()
    df.count(); df
  }

  private val attrCols = Seq("etype", "pop")

  private def gridQueries(n: Int, seed: Long): Array[Array[Float]] = {
    val rnd = new Random(seed)
    Array.fill(n)(Array.fill(D)((rnd.nextInt(65) - 32) / 8.0f))
  }

  private def queriesDf(qvecs: Array[Array[Float]]): DataFrame = {
    val rows = qvecs.zipWithIndex.map { case (v, i) =>
      Row.fromSeq(i.toLong +: v.map(_.toDouble).toSeq)
    }
    val schema = StructType(
      StructField("qid", LongType, nullable = false) +:
      (0 until D).map(j => StructField(s"q$j", DoubleType, nullable = false)))
    spark.createDataFrame(spark.sparkContext.parallelize(rows.toSeq, 1), schema)
  }

  private def resultsDf(run: EngineRun): DataFrame = {
    val rows = run.results.toSeq.flatMap { case (qid, rs) => rs.map(r => Row(qid, r._1)) }
    val schema = StructType(Seq(StructField("qid", LongType, nullable = false),
                                StructField("id", LongType, nullable = false)))
    spark.createDataFrame(spark.sparkContext.parallelize(rows, 1), schema)
  }

  private def l2Sql = (0 until D).map(j =>
    s"(CAST(v.x$j AS DOUBLE)-CAST(q.q$j AS DOUBLE))*(CAST(v.x$j AS DOUBLE)-CAST(q.q$j AS DOUBLE))")
    .mkString(" + ")
  private def ipSql = "-(" + (0 until D).map(j =>
    s"CAST(v.x$j AS DOUBLE)*CAST(q.q$j AS DOUBLE)").mkString(" + ") + ")"

  private def topKSql(where: String, scoreExpr: String, k: Int): String =
    s"""SELECT CAST(qid AS BIGINT) AS qid, CAST(id AS BIGINT) AS id FROM (
       |  SELECT q.qid AS qid, v.id AS id,
       |         row_number() OVER (PARTITION BY q.qid
       |                            ORDER BY $scoreExpr ASC, CAST(v.id AS BIGINT) ASC) AS rn
       |  FROM q, v WHERE $where
       |) WHERE rn <= $k""".stripMargin

  private def runEngine(template: Template, qvecs: Array[Array[Float]],
                        metric: Metric, k: Int): EngineRun = {
    val idx = IndexBuilder.buildFlat(engineDb, attrCols, metric, name = "oracle-flat")
    val w = Workload(Seq(template),
      qvecs.zipWithIndex.map { case (v, i) => HybridQuery(i.toLong, template.id, v) }.toIndexedSeq,
      k, metric)
    val run = BatchEngine.run(idx, w, EngineOptions(k = k, exhaustive = true))
    idx.unpersist()
    run
  }

  test("oracle: hybrid top-k with equality + numeric predicate (L2) matches DuckDB") {
    val t = Template(1, "t", Seq(StrEq("etype", "person"), NumCmp("pop", Ge, 0.5)))
    val qvecs = gridQueries(6, 1)
    val run = runEngine(t, qvecs, Metric.L2, k = 5)
    Oracle.assertEquivalent(
      resultsDf(run),
      topKSql("v.etype = 'person' AND CAST(v.pop AS DOUBLE) >= 0.5", l2Sql, 5),
      "v" -> vdb, "q" -> queriesDf(qvecs))
  }

  test("oracle: hybrid top-k with IN predicate (L2) matches DuckDB") {
    val t = Template(2, "t", Seq(In("etype", Set("song", "film"))))
    val qvecs = gridQueries(5, 2)
    val run = runEngine(t, qvecs, Metric.L2, k = 7)
    Oracle.assertEquivalent(
      resultsDf(run),
      topKSql("v.etype IN ('song','film')", l2Sql, 7),
      "v" -> vdb, "q" -> queriesDf(qvecs))
  }

  test("oracle: hybrid top-k with IS NOT NULL predicate (L2) matches DuckDB") {
    val t = Template(3, "t", Seq(NotNull("pop")))
    val qvecs = gridQueries(4, 3)
    val run = runEngine(t, qvecs, Metric.L2, k = 10)
    Oracle.assertEquivalent(
      resultsDf(run),
      topKSql("v.pop IS NOT NULL", l2Sql, 10),
      "v" -> vdb, "q" -> queriesDf(qvecs))
  }

  test("oracle: hybrid top-k under inner-product metric matches DuckDB") {
    val t = Template(4, "t", Seq(StrEq("etype", "song"), NotNull("pop")))
    val qvecs = gridQueries(5, 4)
    val run = runEngine(t, qvecs, Metric.IP, k = 6)
    Oracle.assertEquivalent(
      resultsDf(run),
      topKSql("v.etype = 'song' AND v.pop IS NOT NULL", ipSql, 6),
      "v" -> vdb, "q" -> queriesDf(qvecs))
  }

  test("oracle: unsatisfiable filter returns zero rows on both sides") {
    val t = Template(5, "t", Seq(StrEq("etype", "city")))
    val qvecs = gridQueries(3, 5)
    val run = runEngine(t, qvecs, Metric.L2, k = 5)
    Oracle.assertEquivalent(
      resultsDf(run),
      topKSql("v.etype = 'city'", l2Sql, 5),
      "v" -> vdb, "q" -> queriesDf(qvecs))
  }

  test("oracle: per-template match counts agree with DuckDB (filter semantics)") {
    val counts = Seq(
      ("person-pop", Pred.and(Seq(StrEq("etype", "person"), NumCmp("pop", Ge, 0.5))),
       "etype = 'person' AND CAST(pop AS DOUBLE) >= 0.5"),
      ("notnull", Pred.and(Seq(NotNull("pop"))), "pop IS NOT NULL"),
      ("in", Pred.and(Seq(In("etype", Set("song", "film")))), "etype IN ('song','film')"),
      ("lt", Pred.and(Seq(NumCmp("pop", Lt, 0.5))), "CAST(pop AS DOUBLE) < 0.5"))
    for ((nm, cond, sql) <- counts) {
      val sparkDf = vdb.filter(cond).agg(count(lit(1)).cast(LongType).as("n"))
      Oracle.assertEquivalent(sparkDf, s"SELECT CAST(count(*) AS BIGINT) AS n FROM v WHERE $sql",
                              "v" -> vdb)
      val _ = nm
    }
  }

  test("oracle: grouped counts by entity type agree with DuckDB") {
    val sparkDf = vdb.groupBy("etype").agg(count(lit(1)).cast(LongType).as("n"))
    Oracle.assertEquivalent(sparkDf,
      "SELECT etype, CAST(count(*) AS BIGINT) AS n FROM v GROUP BY etype",
      "v" -> vdb)
  }
}
