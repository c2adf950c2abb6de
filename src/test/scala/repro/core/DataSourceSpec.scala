package repro.core

import java.io.IOException
import java.nio.file.{Files, Paths}

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._

import repro.{Oracle, SparkSpec}
import repro.core.datasource.HQIStore
import repro.core.engine._
import repro.core.qdtree.Pred
import repro.core.vec.Metric
import repro.workload.{KGData, Templates}

/** The custom DataSourceV2: persisted HQI indexes round-trip exactly, and
  * filter pushdown prunes partitions via semantic descriptions without ever
  * changing results.
  */
class DataSourceSpec extends SparkSpec {

  private lazy val db: DataFrame = { val d = KGData.entities(spark, 3000, 8).cache(); d.count(); d }
  private lazy val history = Templates.relatedQSWorkload(db, 0, 100)
  private lazy val hqi =
    IndexBuilder.buildHQI(db, KGData.AttrCols, Metric.IP, history, HQIOptions(minSize = 256))

  private lazy val path: String = {
    val dir = Files.createTempDirectory("hqi-ds").toString
    HQIStore.write(hqi, dir)
    dir
  }

  private def load(): DataFrame = spark.read.format("hqi").load(path)

  test("store metadata captures dim, predicates and per-leaf semantics") {
    val meta = HQIStore.readMeta(path)
    assert(meta.dim == 8)
    assert(meta.metricName == "IP")
    assert(meta.attrs.map(_.name) == KGData.AttrCols)
    assert(meta.leaves.size == hqi.numPartitions)
    val Routing.ByQDTree(preds, semantics, _) = meta.routing: @unchecked
    assert(preds.nonEmpty)
    assert(semantics.length == meta.leaves.size)
  }

  test("schema inference matches the index layout schema") {
    val df = load()
    assert(df.columns.toSeq ==
      Seq("id", "vec") ++ KGData.AttrCols ++ Seq("__part", "__cluster"))
  }

  test("round-trip: every row is read back exactly") {
    val orig = hqi.data.select("id", "etype", "height", "genre", "country", "birth_year",
                               "popularity", "__part", "__cluster")
      .collect().map(_.toSeq).sortBy(_.head.asInstanceOf[Long])
    val read = load().select("id", "etype", "height", "genre", "country", "birth_year",
                             "popularity", "__part", "__cluster")
      .collect().map(_.toSeq).sortBy(_.head.asInstanceOf[Long])
    assert(read.length == orig.length)
    orig.zip(read).foreach { case (a, b) => assert(a == b) }
  }

  test("round-trip preserves vectors bit-exactly") {
    val orig = hqi.data.select("id", "vec").collect()
      .map(r => r.getLong(0) -> r.getSeq[Float](1).toArray).toMap
    val read = load().select("id", "vec").collect()
      .map(r => r.getLong(0) -> r.getSeq[Float](1).toArray).toMap
    assert(read.keySet == orig.keySet)
    read.foreach { case (id, v) => assert(v.sameElements(orig(id))) }
  }

  test("one input partition per index partition without filters") {
    assert(load().rdd.getNumPartitions == hqi.numPartitions)
  }

  test("pushed filters prune partitions via semantic descriptions") {
    val full = load()
    for (t <- Templates.relatedQS) {
      val prunedParts = full.filter(Pred.and(t.preds)).rdd.getNumPartitions
      // The qd-tree was trained on this workload; pruning must equal routing.
      val routedParts = hqi.route(t, history.queries.head.vec).size
      assert(prunedParts == routedParts,
             s"${t.name}: V2 pruning ($prunedParts) should equal qd-tree routing ($routedParts)")
    }
    // The selective artist template (T2) skips some partitions.
    assert(full.filter(Pred.and(Templates.relatedQS(1).preds)).rdd.getNumPartitions < hqi.numPartitions)
  }

  test("a store of a centroid-routed (m > 0) index prunes by attributes alone") {
    val idx = IndexBuilder.buildHQI(db, KGData.AttrCols, Metric.IP, history,
      HQIOptions(minSize = 256, m = 3, numGlobalCentroids = 16))
    val dir = Files.createTempDirectory("hqi-centroid").toString
    HQIStore.write(idx, dir)
    val Routing.ByQDTree(preds, _, centroids) = HQIStore.readMeta(dir).routing: @unchecked
    assert(centroids.isDefined && preds.exists(_.isInstanceOf[Pred.CentroidEq]))
    val stored = spark.read.format("hqi").load(dir)
    for (t <- Templates.relatedQS) {
      val filtered = stored.filter(Pred.and(t.preds))
      val want = db.filter(Pred.and(t.preds)).count()
      assert(filtered.count() == want, s"${t.name}: count differs from Catalyst's $want")
      val attrOnly = idx.routing.route(t.preds, None, idx.numPartitions).size
      assert(filtered.rdd.getNumPartitions == attrOnly,
             s"${t.name}: V2 pruning should equal the attribute-only route ($attrOnly)")
    }
    idx.unpersist()
  }

  test("pruning never changes filter results (counts match the source of truth)") {
    for (t <- Templates.relatedQS) {
      val want = db.filter(Pred.and(t.preds)).count()
      val got = load().filter(Pred.and(t.preds)).count()
      assert(got == want, s"${t.name}: v2=$got direct=$want")
    }
  }

  test("column pruning: projected reads return correct values") {
    val got = load().select("id", "popularity").collect()
      .map(r => r.getLong(0) -> r.getDouble(1)).toMap
    val want = db.select("id", "popularity").collect()
      .map(r => r.getLong(0) -> r.getDouble(1)).toMap
    assert(got == want)
  }

  test("aggregates over the V2 source match DuckDB (oracle)") {
    val viaV2 = load().groupBy("etype").agg(count(lit(1)).cast("long").as("n"))
    val plain = db.select("id", "etype")
    Oracle.assertEquivalent(viaV2,
      "SELECT etype, CAST(count(*) AS BIGINT) AS n FROM v GROUP BY etype",
      "v" -> plain)
  }

  test("a truncated partition file fails the read instead of returning a prefix") {
    val dir = Files.createTempDirectory("hqi-truncated").toString
    HQIStore.write(hqi, dir)
    val leaf = HQIStore.readMeta(dir).leaves.maxBy(_.size)
    val file = Paths.get(dir, leaf.file)
    val bytes = Files.readAllBytes(file)
    // Cuts inside the rows, and inside or before the 4-byte row-count header.
    for (cut <- Seq(bytes.length / 2, 0, 3)) {
      Files.write(file, bytes.take(cut))
      val e = intercept[Exception](spark.read.format("hqi").load(dir).count())
      val causes = Iterator.iterate[Throwable](e)(_.getCause).takeWhile(_ != null).toSeq
      assert(causes.exists { c =>
        val msg = Option(c.getMessage).getOrElse("")
        c.isInstanceOf[IOException] && msg.contains(file.toString) &&
          (cut < 4 || msg.contains(s"of ${leaf.size} rows"))
      }, s"cut at $cut bytes:\n" + causes.map(_.toString).mkString("\n"))
    }
  }

  test("a flat index (no qd-tree) stores no semantics and never prunes") {
    val flat = IndexBuilder.buildFlat(db, KGData.AttrCols, Metric.IP)
    val dir = Files.createTempDirectory("hqi-flat").toString
    HQIStore.write(flat, dir)
    assert(HQIStore.readMeta(dir).routing == Routing.All)
    val df = spark.read.format("hqi").load(dir)
    assert(df.filter(col("etype") === "person").rdd.getNumPartitions == 1)
    assert(df.count() == 3000)
    flat.unpersist()
  }

  test("pushed filters match index predicates by value, not by display form") {
    val (alike, w) = EngineFixtures.alikeTable(spark)
    val idx = IndexBuilder.buildHQI(alike, Seq("genre"), Metric.IP, w, HQIOptions(minSize = 50))
    val dir = Files.createTempDirectory("hqi-alike").toString
    HQIStore.write(idx, dir)
    val stored = spark.read.format("hqi").load(dir)
    for (t <- w.templates) {
      val want = alike.filter(Pred.and(t.preds)).count()
      val got = stored.filter(Pred.and(t.preds)).count()
      assert(got == want, s"${t.name}: v2=$got direct=$want")
    }
    idx.unpersist()
  }
}
