package repro.core.engine

import java.util.stream.IntStream

import org.apache.spark.sql.{Column, DataFrame, Row}
import org.apache.spark.sql.functions._
import scala.collection.immutable.BitSet
import scala.collection.mutable

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
  */
final case class HQIOptions(minSize: Int = 1024,
                            m: Int = 0,
                            numGlobalCentroids: Int = 64)

/** Builders producing [[PartitionedIndex]] layouts for each strategy.
  *
  * Every layout is "partition the tuples, then one IVF with √|Pᵢ| cells per
  * partition" (§4.1.3, §2.2); the builders differ only in which partition
  * each tuple goes to. The driver trains k-means/qd-tree structures over a
  * collected copy of `(id, vec)` (bounded at reproduction scale); the
  * predicates behind each tuple's qd-tree signature are evaluated by Catalyst
  * in that same collect; the
  * final `__part` / `__cluster` layout columns are attached to an uncached
  * view of the input by an id lookup, and that view, repartitioned by them,
  * is decoded into the resident posting lists — the index layout *is* the
  * DataFrame partition layout, and the posting lists are its only resident
  * copy.
  */
object IndexBuilder {

  /** Columns every index layout appends to the input schema. */
  val PartCol = "__part"
  val ClusterCol = "__cluster"

  /** Base seed of the k-means in every build. */
  val Seed = 7L

  /** Every row's id and vector in id order; tuple `i` of a build is the row
    * with id `ids(i)`. The same collect carries the `extra` columns, which
    * `each(row)`, called in tuple order, reads from position 2 on. Every
    * vector must have the first row's dimension and only finite components.
    */
  private def collectVectors(db: DataFrame, extra: Seq[Column] = Nil)(each: Row => Unit)
      : (Array[Long], Array[Array[Float]]) = {
    val rows = db.select(col("id") +: col("vec") +: extra: _*).orderBy("id").collect()
    val ids = new Array[Long](rows.length)
    val vecs = new Array[Array[Float]](rows.length)
    var i = 0
    while (i < rows.length) {
      ids(i) = rows(i).getLong(0)
      vecs(i) = rows(i).getSeq[Float](1).toArray
      VectorOps.requireScorable(vecs(i), vecs(0).length, s"row ${ids(i)}", s"row ${ids(0)}")
      each(rows(i))
      i += 1
    }
    (ids, vecs)
  }

  /** The build step every layout shares. Partition `p` (tuples with
    * `partOf(i) == p`, in id order) gets √|P| IVF cells trained with seed
    * `Seed + p`, or one zero centroid when it is empty; every tuple is
    * assigned its nearest cell, and its posting lists are decoded from the
    * input laid out by `(__part, __cluster)` and persisted, the index's only
    * resident copy. Partitions are trained in parallel; each depends only on
    * its own seed and tuples, so the result does not depend on the order.
    */
  private def build(name: String, db: DataFrame, attrCols: Seq[String], metric: Metric,
                    routing: Routing, ids: Array[Long], vecs: Array[Array[Float]],
                    partOf: Array[Int], numParts: Int, laps: Laps,
                    collectMs: Double, partitionMs: Double): PartitionedIndex = {
    val members = Array.fill(numParts)(new mutable.ArrayBuilder.ofInt)
    for (i <- ids.indices) members(partOf(i)) += i
    val dim = vecs.headOption.fold(1)(_.length)
    val clusterOf = new Array[Int](ids.length)
    val leaves = new Array[LeafMeta](numParts)
    val leafNanos = new Array[Long](numParts)
    IntStream.range(0, numParts).parallel().forEach { p =>
      val t = System.nanoTime()
      val idxs = members(p).result()
      val pvecs = idxs.map(vecs)
      val cents = if (idxs.isEmpty) Array(new Array[Float](dim)) else IVF.train(pvecs, Seed + p)
      val cells = KMeans.assign(pvecs, cents)
      var j = 0
      while (j < idxs.length) { clusterOf(idxs(j)) = cells(j); j += 1 }
      leaves(p) = LeafMeta(p, idxs.length.toLong, cents)
      leafNanos(p) = System.nanoTime() - t
    }
    val leafIvfMs = laps.lap()
    // The placement reaches the UDF only through a broadcast: arrays its
    // closure captured would enter the lineage of `cells`, so every pass's
    // task would carry them (16 bytes a row).
    val placement = db.sparkSession.sparkContext.broadcast((ids, partOf, clusterOf))
    val place = udf { (id: Long) =>
      val (ids, partOf, clusterOf) = placement.value
      // `ids` is sorted, so one binary search finds a row's tuple index.
      val i = java.util.Arrays.binarySearch(ids, id)
      (partOf(i), clusterOf(i))
    }
    val data = db.withColumn("__place", place(col("id")))
      .withColumn(PartCol, col("__place._1"))
      .withColumn(ClusterCol, col("__place._2"))
      .drop("__place")
    val cells = BatchEngine.decode(data, attrCols, BatchEngine.cellBase(leaves)).persist()
    cells.count()
    val phases = BuildPhases(collectMs.toLong, partitionMs.toLong, leafIvfMs.toLong, leafNanos.sum / 1000000L,
                             leafNanos.max / 1000000L, laps.lap().toLong)
    new PartitionedIndex(name, data, cells, placement, attrCols, metric, leaves, routing, laps.total.toLong, phases)
  }

  /** Strategy B/D layout: one logical partition, a single IVF with √n cells
    * trained over the full dataset (this is what makes single-index training
    * scale as O(n√n), Table 4).
    */
  def buildFlat(db: DataFrame, attrCols: Seq[String], metric: Metric,
                name: String = "PreFilter"): PartitionedIndex = {
    val laps = new Laps
    val (ids, vecs) = collectVectors(db)(_ => ())
    build(name, db, attrCols, metric, Routing.All, ids, vecs, new Array[Int](ids.length), 1,
          laps, laps.lap(), 0)
  }

  /** Strategy C layout: equi-depth range partitions on `rangeAttr`, one IVF
    * (√|Pᵢ| cells) per partition. A row's bucket is the number of cuts its
    * value is at or above, as Catalyst compares; rows with no value go to
    * the first bucket.
    */
  def buildRange(db: DataFrame, attrCols: Seq[String], metric: Metric,
                 rangeAttr: String, numParts: Int): PartitionedIndex = {
    val laps = new Laps
    val probs = (1 until numParts).map(_.toDouble / numParts).toArray
    // (Spark returns null, not an empty array, for no probabilities.)
    val cuts = if (probs.isEmpty) probs else db.stat.approxQuantile(rangeAttr, probs, 0.001)
    val edges = (Double.NegativeInfinity +: cuts.toIndexedSeq) :+ Double.PositiveInfinity
    val bucket = cuts.foldLeft(lit(0))((b, c) => b + when(Pred.NumCmp(rangeAttr, Pred.Ge, c).toColumn, 1).otherwise(0))
    val partitionMs = laps.lap()
    val parts = new mutable.ArrayBuilder.ofInt
    val (ids, vecs) = collectVectors(db, Seq(bucket))(r => parts += r.getInt(2))
    build("Range", db, attrCols, metric, Routing.ByRange(rangeAttr, edges.zip(edges.tail)),
          ids, vecs, parts.result(), numParts, laps, laps.lap(), partitionMs)
  }

  /** HQI (§4): balanced qd-tree over the historical workload's predicates
    * (optionally augmented with centroid predicates when m > 0), then one IVF
    * per leaf. With no history (e.g. the LP workload) the build degenerates
    * to [[buildFlat]] exactly as the paper notes in §6.2.
    */
  def buildHQI(db: DataFrame, attrCols: Seq[String], metric: Metric,
               history: Workload, opts: HQIOptions = HQIOptions()): PartitionedIndex = {
    if (history.queries.isEmpty)
      return buildFlat(db, attrCols, metric, name = "HQI")

    val laps = new Laps
    // Extract cut predicates from the workload, deduplicated by value.
    val attrPreds: Array[Pred] = history.templates.flatMap(_.preds).distinct.toArray

    // The id/vector collect also evaluates every attribute predicate over V
    // in Catalyst: each tuple's signature is the set of those it satisfies.
    val sigBuf = new mutable.ArrayBuilder.ofRef[BitSet]
    val (ids, vecs) = collectVectors(db, attrPreds.toSeq.map(_.toColumn)) { r =>
      val words = new Array[Long]((attrPreds.length + 63) / 64)
      var j = 0
      while (j < attrPreds.length) {
        if (!r.isNullAt(j + 2) && r.getBoolean(j + 2)) words(j >> 6) |= 1L << j
        j += 1
      }
      sigBuf += BitSet.fromBitMaskNoCopy(words)
    }
    val sigs = sigBuf.result()
    val collectMs = laps.lap()

    // §4.1.1: global centroid attribute t.c (only when centroid routing is on).
    val centroidRouting: Option[Routing.CentroidRouting] =
      if (opts.m > 0)
        Some(Routing.CentroidRouting(opts.m,
          KMeans.train(vecs, opts.numGlobalCentroids, seed = Seed)))
      else None
    val centroidPreds: Array[Pred] =
      centroidRouting.fold(Array.empty[Pred])(c => Array.tabulate(c.global.length)(Pred.CentroidEq(_)))
    val preds: Array[Pred] = attrPreds ++ centroidPreds

    // A tuple's centroid predicate comes from the driver-side assignment.
    centroidRouting.foreach { c =>
      for ((cid, t) <- KMeans.assign(vecs, c.global).zipWithIndex) sigs(t) += attrPreds.length + cid
    }

    // The workload model reads each history query as clauses through the
    // routing that will serve it, deduplicated into weighted shapes.
    val routing = Routing.ByQDTree(preds, Array.empty, centroidRouting)
    val shapes: Seq[RoutedQuery] = history.queries
      .groupBy(q => routing.clauses(history.templateById(q.templateId).preds, Some(q.vec)))
      .map { case (clauses, qs) => RoutedQuery(clauses, qs.size.toLong) }.toSeq

    val tree = QDTree.build(sigs, shapes, opts.minSize)
    build("HQI", db, attrCols, metric, routing.copy(semantics = tree.leaves.map(_.semantic)),
          ids, vecs, tree.leafOfTuple, tree.numLeaves, laps, collectMs, laps.lap())
  }
}
