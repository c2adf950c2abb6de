package repro.core

import org.apache.spark.sql.DataFrame

import repro.SparkSpec
import repro.core.engine._
import repro.core.ivf.IVF
import repro.core.qdtree.Pred
import repro.core.vec.Metric
import repro.workload.{Bigann, KGData, Templates}

class IndexBuilderSpec extends SparkSpec {

  private lazy val kg: DataFrame = { val d = KGData.entities(spark, 3000, 8).cache(); d.count(); d }
  private lazy val history = Templates.relatedQSWorkload(kg, 0, 100)
  private lazy val bg: DataFrame = { val d = Bigann.dataset(spark, 4096, 8).cache(); d.count(); d }

  test("flat index: one partition, sqrt(n) cells, every row assigned") {
    val idx = IndexBuilder.buildFlat(kg, KGData.AttrCols, Metric.IP)
    assert(idx.numPartitions == 1)
    assert(idx.leaves.head.centroids.length == 55) // round(sqrt(3000))
    assert(idx.totalRows == 3000)
    val parts = idx.data.select(IndexBuilder.PartCol).distinct().collect().map(_.getInt(0))
    assert(parts.toSeq == Seq(0))
    val clusters = idx.data.select(IndexBuilder.ClusterCol).distinct().count()
    assert(clusters > 1 && clusters <= 55)
    idx.unpersist()
  }

  test("flat index: __cluster equals driver-side nearest-centroid assignment") {
    val idx = IndexBuilder.buildFlat(kg, KGData.AttrCols, Metric.IP)
    val cents = idx.leaves.head.centroids
    val rows = idx.data.select("vec", IndexBuilder.ClusterCol).limit(200).collect()
    rows.foreach { r =>
      val v = r.getSeq[Float](0).toArray
      assert(r.getInt(1) == repro.core.ivf.IVF.assign(v, cents))
    }
    idx.unpersist()
  }

  test("HQI index: leaves cover all rows disjointly and routing metadata is present") {
    val idx = IndexBuilder.buildHQI(kg, KGData.AttrCols, Metric.IP, history, HQIOptions(minSize = 256))
    assert(idx.routing.isInstanceOf[Routing.ByQDTree])
    assert(idx.numPartitions > 1)
    assert(idx.leaves.map(_.size).sum == 3000)
    val partCounts = idx.data.groupBy(IndexBuilder.PartCol).count().collect()
      .map(r => r.getInt(0) -> r.getLong(1)).toMap
    idx.leaves.foreach(l => assert(partCounts.getOrElse(l.partId, 0L) == l.size))
    idx.unpersist()
  }

  test("HQI index: per-leaf cell count is sqrt(leaf size)") {
    val idx = IndexBuilder.buildHQI(kg, KGData.AttrCols, Metric.IP, history, HQIOptions(minSize = 256))
    idx.leaves.filter(_.size > 0).foreach { l =>
      assert(l.centroids.length == math.max(1, math.round(math.sqrt(l.size.toDouble)).toInt))
    }
    idx.unpersist()
  }

  test("HQI with empty history degenerates to a flat index named HQI (the LP case)") {
    val empty = history.copy(queries = IndexedSeq.empty)
    val idx = IndexBuilder.buildHQI(kg, KGData.AttrCols, Metric.IP, empty)
    assert(idx.name == "HQI")
    assert(idx.numPartitions == 1)
    assert(idx.routing == Routing.All)
    idx.unpersist()
  }

  test("HQI routing reaches every leaf containing a matching tuple") {
    val idx = IndexBuilder.buildHQI(kg, KGData.AttrCols, Metric.IP, history, HQIOptions(minSize = 256))
    for (t <- history.templates) {
      val routed = idx.route(t, history.queries.head.vec).toSet
      val matchingParts = idx.data.filter(Pred.and(t.preds))
        .select(IndexBuilder.PartCol).distinct().collect().map(_.getInt(0)).toSet
      assert(matchingParts.subsetOf(routed),
             s"${t.name}: matching parts $matchingParts not all routed ($routed)")
    }
    idx.unpersist()
  }

  test("range index: equi-depth buckets on the partition attribute") {
    val idx = IndexBuilder.buildRange(bg, Bigann.AttrCols, Metric.L2, "a", numParts = 8)
    assert(idx.numPartitions == 8)
    assert(idx.leaves.map(_.size).sum == 4096)
    // Equi-depth: no bucket is wildly off 1/8 of the data.
    idx.leaves.foreach(l => assert(l.size > 4096 / 16 && l.size < 4096 / 4, s"bucket ${l.size}"))
    idx.unpersist()
  }

  test("range index: rows land in the bucket covering their attribute value") {
    val idx = IndexBuilder.buildRange(bg, Bigann.AttrCols, Metric.L2, "a", numParts = 8)
    val Routing.ByRange("a", ranges) = idx.routing: @unchecked
    val rows = idx.data.select("a", IndexBuilder.PartCol).limit(500).collect()
    rows.foreach { r =>
      val (lo, hi) = ranges(r.getInt(1))
      val v = r.getDouble(0)
      assert(v >= lo && v < hi, s"value $v outside [$lo,$hi)")
    }
    idx.unpersist()
  }

  test("range routing prunes on the partitioning attribute but not the other") {
    val idx = IndexBuilder.buildRange(bg, Bigann.AttrCols, Metric.L2, "a", numParts = 8)
    val aSel = Bigann.templates(3)  // a < 2^-3
    val bSel = Bigann.templates(13) // b < 2^-3
    val aParts = idx.route(aSel, Array.fill(8)(0f))
    val bParts = idx.route(bSel, Array.fill(8)(0f))
    assert(aParts.size < idx.numPartitions, "predicate on partitioning attribute should prune")
    assert(bParts.size == idx.numPartitions, "predicate on the other attribute cannot prune")
    idx.unpersist()
  }

  test("range routing is safe: all matching tuples are in routed partitions") {
    val idx = IndexBuilder.buildRange(bg, Bigann.AttrCols, Metric.L2, "a", numParts = 8)
    for (t <- Bigann.templates.take(10)) {
      val routed = idx.route(t, Array.fill(8)(0f)).toSet
      val matching = idx.data.filter(Pred.and(t.preds))
        .select(IndexBuilder.PartCol).distinct().collect().map(_.getInt(0)).toSet
      assert(matching.subsetOf(routed), s"${t.name}")
    }
    idx.unpersist()
  }

  test("every layout: __cluster is the nearest centroid of the row's leaf, and leaf centroids are IVF.train of its vectors") {
    val layouts = Seq(
      IndexBuilder.buildFlat(kg, KGData.AttrCols, Metric.IP),
      IndexBuilder.buildHQI(kg, KGData.AttrCols, Metric.IP, history, HQIOptions(minSize = 256)),
      IndexBuilder.buildRange(bg, Bigann.AttrCols, Metric.L2, "a", numParts = 8))
    for (idx <- layouts) {
      val rows = idx.data.select("id", "vec", IndexBuilder.PartCol, IndexBuilder.ClusterCol)
        .orderBy("id").collect()
        .map(r => (r.getSeq[Float](1).toArray, r.getInt(2), r.getInt(3)))
      for ((vec, part, cluster) <- rows)
        assert(cluster == IVF.assign(vec, idx.leafById(part).centroids), s"${idx.name}: leaf $part")
      for (l <- idx.leaves if l.size > 0) {
        val vecs = rows.collect { case (v, p, _) if p == l.partId => v }
        val want = IVF.train(vecs, 7 + l.partId)
        assert(l.centroids.map(_.toSeq).toSeq == want.map(_.toSeq).toSeq, s"${idx.name}: leaf ${l.partId}")
      }
      idx.unpersist()
    }
  }

  test("build times are recorded") {
    val idx = IndexBuilder.buildFlat(kg, KGData.AttrCols, Metric.IP)
    assert(idx.buildMillis > 0)
    idx.unpersist()
  }

  test("parallel leaf training gives the centroids and __cluster of a sequential IVF.train and IVF.assign loop") {
    val idx = IndexBuilder.buildHQI(kg, KGData.AttrCols, Metric.IP, history, HQIOptions(minSize = 64))
    assert(idx.numPartitions > 8)
    val rows = idx.data.select("vec", IndexBuilder.PartCol, IndexBuilder.ClusterCol).orderBy("id").collect()
      .map(r => (r.getSeq[Float](0).toArray, r.getInt(1), r.getInt(2)))
    def bits(cents: Array[Array[Float]]): Seq[Seq[Int]] =
      cents.map(_.map(java.lang.Float.floatToRawIntBits).toSeq).toSeq
    val cluster = new Array[Int](rows.length)
    for (l <- idx.leaves) {
      val members = rows.indices.filter(i => rows(i)._2 == l.partId)
      val cents =
        if (members.isEmpty) Array(new Array[Float](8)) else IVF.train(members.map(rows(_)._1).toArray, 7 + l.partId)
      assert(bits(l.centroids) == bits(cents), s"leaf ${l.partId}")
      for (i <- members) cluster(i) = IVF.assign(rows(i)._1, cents)
    }
    assert(rows.map(_._3).toSeq == cluster.toSeq)
    idx.unpersist()
  }

  test("build phases are non-negative and their wall times sum to at most the build time") {
    val layouts = Seq(
      IndexBuilder.buildFlat(kg, KGData.AttrCols, Metric.IP),
      IndexBuilder.buildHQI(kg, KGData.AttrCols, Metric.IP, history, HQIOptions(minSize = 256, m = 2)),
      IndexBuilder.buildRange(bg, Bigann.AttrCols, Metric.L2, "a", numParts = 8))
    for (idx <- layouts) {
      val p = idx.buildPhases
      val all = Seq(p.collectMs, p.partitionMs, p.leafIvfMs, p.leafIvfSumMs, p.leafIvfMaxMs, p.layoutMs)
      assert(all.forall(_ >= 0), s"${idx.name}: $p")
      assert(p.collectMs + p.partitionMs + p.leafIvfMs + p.layoutMs <= idx.buildMillis, s"${idx.name}: $p")
      assert(p.leafIvfMaxMs <= p.leafIvfSumMs, s"${idx.name}: $p")
      idx.unpersist()
    }
  }

  test("layout columns do not disturb the original attribute columns") {
    val idx = IndexBuilder.buildFlat(kg, KGData.AttrCols, Metric.IP)
    val got = idx.data.select("id", "etype", "popularity").collect()
      .map(r => (r.getLong(0), r.getString(1), r.getDouble(2))).sortBy(_._1)
    val want = kg.select("id", "etype", "popularity").collect()
      .map(r => (r.getLong(0), r.getString(1), r.getDouble(2))).sortBy(_._1)
    assert(got.sameElements(want))
    idx.unpersist()
  }
}
