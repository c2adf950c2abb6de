package repro.core.engine

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import org.roaringbitmap.RoaringBitmap

import repro.core.ivf.IVF
import repro.core.qdtree.{Pred, QDTree, RoutedQuery}
import repro.core.vec.{KMeans, Metric, VectorOps}
import repro.workload.Workload

/** Options for workload-aware index construction (§4.1).
  *
  * @param minSize           qd-tree MIN_SIZE — stop splitting below this
  * @param m                 number of nearest global centroids per query used
  *                          as a routing constraint (0 disables, paper's best)
  * @param numGlobalCentroids |C| for the §4.1.1 centroid attribute (only used
  *                          when m > 0)
  * @param kmeansSeed        seed for every k-means invocation
  */
final case class HQIOptions(minSize: Int = 1024,
                            m: Int = 0,
                            numGlobalCentroids: Int = 64,
                            kmeansSeed: Long = 7)

/** Builders producing [[PartitionedIndex]] layouts for each strategy.
  *
  * The driver trains k-means/qd-tree structures over a collected copy of
  * `(id, vec)` (bounded at reproduction scale); predicate support bitmaps are
  * evaluated by Catalyst in one distributed pass; the final `__part` /
  * `__cluster` layout columns are attached distributed via broadcast maps and
  * the DataFrame is repartitioned by them — the index layout *is* the
  * DataFrame partition layout.
  */
object IndexBuilder {

  /** Columns every index layout appends to the input schema. */
  val PartCol = "__part"
  val ClusterCol = "__cluster"

  private def now(): Long = System.currentTimeMillis()

  private def collectVectors(db: DataFrame): (Array[Long], Array[Array[Float]]) = {
    val rows = db.select("id", "vec").orderBy("id").collect()
    val ids = new Array[Long](rows.length)
    val vecs = new Array[Array[Float]](rows.length)
    var i = 0
    while (i < rows.length) {
      ids(i) = rows(i).getLong(0)
      vecs(i) = rows(i).getSeq[Float](1).toArray
      i += 1
    }
    (ids, vecs)
  }

  private def layout(db: DataFrame, idToPart: Long => Int, idToCluster: Long => Int): DataFrame = {
    val spark = db.sparkSession
    val partUdf = udf(idToPart)
    val clusterUdf = udf(idToCluster)
    val p = spark.sparkContext.defaultParallelism
    db.withColumn(PartCol, partUdf(col("id")))
      .withColumn(ClusterCol, clusterUdf(col("id")))
      .repartition(p, col(PartCol), col(ClusterCol))
  }

  private def materialize(df: DataFrame): DataFrame = { val c = df.cache(); c.count(); c }

  /** Strategy B/D layout: one logical partition, a single IVF with √n cells
    * trained over the full dataset (this is what makes single-index training
    * scale as O(n√n), Table 4).
    */
  def buildFlat(db: DataFrame, attrCols: Seq[String], metric: Metric,
                name: String = "PreFilter", seed: Long = 7): PartitionedIndex = {
    val t0 = now()
    val (ids, vecs) = collectVectors(db)
    val centroids = IVF.train(vecs, seed, cellsOverride = Some(KMeans.sqrtCells(vecs.length.toLong)))
    val cluster = new Array[Int](ids.length)
    var i = 0
    while (i < ids.length) { cluster(i) = IVF.assign(vecs(i), centroids); i += 1 }
    val clusterOf = ids.zip(cluster).toMap
    val data = materialize(layout(db, _ => 0, clusterOf))
    new PartitionedIndex(name, data, attrCols, metric,
      Array(LeafMeta(0, ids.length.toLong, centroids)),
      Routing.All, None, None, now() - t0)
  }

  /** Strategy C layout: equi-depth range partitions on `rangeAttr`, one IVF
    * (√|Pᵢ| cells) per partition.
    */
  def buildRange(db: DataFrame, attrCols: Seq[String], metric: Metric,
                 rangeAttr: String, numParts: Int, seed: Long = 7): PartitionedIndex = {
    val t0 = now()
    val probs = (1 until numParts).map(_.toDouble / numParts).toArray
    val cuts = db.stat.approxQuantile(rangeAttr, probs, 0.001)
    val bounds = (Double.NegativeInfinity +: cuts.toSeq) :+ Double.PositiveInfinity
    def bucket(v: Double): Int = {
      var b = 0
      while (b < numParts - 1 && v >= cuts(b)) b += 1
      b
    }

    val rows = db.select("id", "vec", rangeAttr).orderBy("id").collect()
    val ids = new Array[Long](rows.length)
    val vecs = new Array[Array[Float]](rows.length)
    val part = new Array[Int](rows.length)
    var i = 0
    while (i < rows.length) {
      ids(i) = rows(i).getLong(0)
      vecs(i) = rows(i).getSeq[Float](1).toArray
      part(i) = if (rows(i).isNullAt(2)) 0 else bucket(rows(i).getDouble(2))
      i += 1
    }
    val byPart = ids.indices.groupBy(part)
    val leafMetas = new Array[LeafMeta](numParts)
    val cluster = new Array[Int](ids.length)
    for (p <- 0 until numParts) {
      val idxs = byPart.getOrElse(p, Seq.empty)
      val pv = idxs.map(vecs).toArray
      val cents =
        if (pv.isEmpty) Array(Array.fill(vecs.headOption.map(_.length).getOrElse(1))(0f))
        else IVF.train(pv, seed + p)
      idxs.foreach(j => cluster(j) = IVF.assign(vecs(j), cents))
      leafMetas(p) = LeafMeta(p, idxs.size.toLong, cents, Some((bounds(p), bounds(p + 1))))
    }
    val partOf = ids.zip(part).toMap
    val clusterOf = ids.zip(cluster).toMap
    val data = materialize(layout(db, partOf, clusterOf))
    new PartitionedIndex("Range", data, attrCols, metric, leafMetas,
      Routing.ByRange(rangeAttr), None, None, now() - t0)
  }

  /** HQI (§4): balanced qd-tree over the historical workload's predicates
    * (optionally augmented with centroid predicates when m > 0), then one IVF
    * per leaf. With no history (e.g. the LP workload) the build degenerates
    * to [[buildFlat]] exactly as the paper notes in §6.2.
    */
  def buildHQI(db: DataFrame, attrCols: Seq[String], metric: Metric,
               history: Workload, opts: HQIOptions = HQIOptions()): PartitionedIndex = {
    if (history.queries.isEmpty)
      return buildFlat(db, attrCols, metric, name = "HQI", seed = opts.kmeansSeed)

    val t0 = now()
    val (ids, vecs) = collectVectors(db)
    val n = ids.length

    // §4.1.1: global centroid attribute t.c (only when centroid routing is on).
    val globalCentroids: Option[Array[Array[Float]]] =
      if (opts.m > 0) Some(KMeans.train(vecs, opts.numGlobalCentroids, IVF.AssignMetric, seed = opts.kmeansSeed))
      else None
    val tupleCentroid: Array[Int] = globalCentroids match {
      case Some(c) => vecs.map(v => IVF.assign(v, c))
      case None    => Array.empty
    }

    // Extract cut predicates from the workload (dedup by display form).
    val attrPreds: Array[Pred] = {
      val seen = scala.collection.mutable.LinkedHashMap.empty[String, Pred]
      for (t <- history.templates; p <- t.preds) seen.getOrElseUpdate(p.describe, p)
      seen.values.toArray
    }
    val centroidPreds: Array[Pred] = globalCentroids match {
      case Some(c) => c.indices.map(i => Pred.CentroidEq(i): Pred).toArray
      case None    => Array.empty
    }
    val preds: Array[Pred] = attrPreds ++ centroidPreds

    // One Catalyst pass evaluates every attribute predicate over V.
    val support: Array[RoaringBitmap] = {
      val boolCols = attrPreds.zipWithIndex.map { case (p, i) => p.toColumn.as(s"p$i") }
      val rows = db.select(col("id") +: boolCols.toSeq: _*).orderBy("id").collect()
      val bitmaps = Array.fill(preds.length)(new RoaringBitmap())
      var i = 0
      while (i < rows.length) {
        var j = 0
        while (j < attrPreds.length) {
          if (!rows(i).isNullAt(j + 1) && rows(i).getBoolean(j + 1)) bitmaps(j).add(i)
          j += 1
        }
        i += 1
      }
      // Centroid predicate supports come from the driver-side assignment.
      if (centroidPreds.nonEmpty) {
        var t = 0
        while (t < n) { bitmaps(attrPreds.length + tupleCentroid(t)).add(t); t += 1 }
      }
      bitmaps
    }

    val predIdx: Map[String, Int] = preds.iterator.map(_.describe).zipWithIndex.toMap

    // Deduplicate the workload into weighted routed shapes.
    val shapes: Seq[RoutedQuery] = {
      val templatePreds: Map[Int, Seq[Seq[Int]]] =
        history.templates.map(t => t.id -> t.preds.map(p => Seq(predIdx(p.describe)))).toMap
      if (opts.m <= 0) {
        history.queries.groupBy(_.templateId).map { case (tid, qs) =>
          RoutedQuery(templatePreds(tid), qs.size.toLong)
        }.toSeq
      } else {
        val gc = globalCentroids.get
        history.queries
          .map { q =>
            val qc = VectorOps.nearestN(q.vec, gc, opts.m, IVF.AssignMetric).toSeq.sorted
            (q.templateId, qc)
          }
          .groupBy(identity)
          .map { case ((tid, qc), qs) =>
            val centroidClause = qc.map(c => predIdx(Pred.CentroidEq(c).describe))
            RoutedQuery(templatePreds(tid) :+ centroidClause, qs.size.toLong)
          }.toSeq
      }
    }

    val tree = QDTree.build(n, preds, support, shapes, opts.minSize)

    // One IVF per leaf (√|leaf| cells).
    val byLeaf: Map[Int, Seq[Int]] = (0 until n).groupBy(tree.leafOfTuple)
    val cluster = new Array[Int](n)
    val leafMetas = tree.leaves.map { leaf =>
      val idxs = byLeaf.getOrElse(leaf.leafId, Seq.empty)
      val lv = idxs.map(vecs).toArray
      val cents =
        if (lv.isEmpty) Array(Array.fill(vecs.headOption.map(_.length).getOrElse(1))(0f))
        else IVF.train(lv, opts.kmeansSeed + leaf.leafId)
      idxs.foreach(j => cluster(j) = IVF.assign(vecs(j), cents))
      LeafMeta(leaf.leafId, idxs.size.toLong, cents)
    }

    val partOf = ids.indices.map(i => ids(i) -> tree.leafOfTuple(i)).toMap
    val clusterOf = ids.indices.map(i => ids(i) -> cluster(i)).toMap
    val data = materialize(layout(db, partOf, clusterOf))
    new PartitionedIndex("HQI", data, attrCols, metric, leafMetas,
      Routing.ByQDTree(opts.m), Some(tree), globalCentroids, now() - t0)
  }
}
