package repro.core.engine

import org.apache.spark.rdd.RDD
import org.apache.spark.sql.DataFrame

import scala.collection.mutable

import repro.core.ivf.IVF
import repro.core.qdtree.{Pred, QDTree}
import repro.core.vec.{Block, Metric, VectorOps}
import repro.workload.Template

/** How queries are routed to index partitions at query time. Each layout's
  * routing carries the data it routes by.
  */
sealed trait Routing extends Serializable
object Routing {
  /** Every query visits every partition (PreFilter / PostFilter / flat). */
  case object All extends Routing
  /** Semantic-description routing over the qd-tree's leaves (§4.1.3). */
  final case class ByQDTree(tree: QDTree, centroids: Option[CentroidRouting] = None) extends Routing
  /** The §4.1.1 centroid constraint: each query is routed with its `m`
    * nearest `global` centroids, so routing is per query, not per template.
    */
  final case class CentroidRouting(m: Int, global: Array[Array[Float]])
  /** Range-partitioned on one numeric attribute (Strategy C); partition `i`
    * covers `[bounds(i)._1, bounds(i)._2)`.
    */
  final case class ByRange(attr: String, bounds: IndexedSeq[(Double, Double)]) extends Routing
}

/** Driver-side metadata for one physical partition (`__part` value).
  *
  * @param centroids IVF cell centroids; `__cluster` on the data is the index
  *                  of the nearest centroid here
  */
final case class LeafMeta(partId: Int, size: Long, centroids: Array[Array[Float]])

/** A built, partitioned vector index: the physical layout lives in `data`
  * (columns `id, vec, <attrs…>, __part, __cluster`, repartitioned and cached
  * by `(__part, __cluster)`), its decoded posting lists in `cells` (one
  * persisted map from probe key to [[BatchEngine.Cell]] per Spark partition
  * of `data`, which every batch pass scans), and everything needed for
  * routing/probing in driver metadata.
  */
final class PartitionedIndex(val name: String,
                             val data: DataFrame,
                             private[engine] val cells: RDD[mutable.HashMap[Long, BatchEngine.Cell]],
                             val attrCols: Seq[String],
                             val metric: Metric,
                             val leaves: Array[LeafMeta],
                             val routing: Routing,
                             val buildMillis: Long) extends Serializable {

  val leafById: Map[Int, LeafMeta] = leaves.map(l => l.partId -> l).toMap

  /** Each leaf's IVF centroids as a d-major block whose ids are the cells'
    * probe keys, for ranking cells with the batch kernel; built once per
    * index, not once per pass.
    */
  @transient private[engine] lazy val centroidBlocks: Map[Int, Block] = leaves.map { l =>
    val keys = l.centroids.indices.map(c => BatchEngine.key(l.partId, c)).toArray
    l.partId -> Block(keys, l.centroids, l.centroids.headOption.fold(0)(_.length))
  }.toMap

  def numPartitions: Int = leaves.length
  def totalRows: Long = leaves.map(_.size).sum

  /** Partitions a query with this template and vector must visit. */
  def route(template: Template, qvec: Array[Float]): Seq[Int] = routing match {
    case Routing.All => leaves.map(_.partId).toSeq
    case Routing.ByQDTree(tree, centroids) =>
      val qc = centroids.fold(Seq.empty[Int]) { c =>
        VectorOps.nearestN(qvec, c.global, c.m, IVF.AssignMetric).toSeq
      }
      tree.routePreds(template.preds, qc)
    case Routing.ByRange(attr, bounds) =>
      leaves.map(_.partId).toSeq.filter { p =>
        val (lo, hi) = bounds(p)
        rangeMayMatch(template, attr, lo, hi)
      }
  }

  /** Can a [lo, hi) bucket contain tuples satisfying the template's
    * predicates over the partitioning attribute? Predicates on other
    * attributes cannot prune range partitions (the paper's point about
    * Strategy C and non-partitioning attributes).
    */
  private def rangeMayMatch(template: Template, attr: String, lo: Double, hi: Double): Boolean =
    template.preds.forall {
      case Pred.NumCmp(a, op, v) if a == attr => op match {
        case Pred.Lt   => lo < v
        case Pred.Le   => lo <= v
        case Pred.Gt   => hi > v       // hi is exclusive: some x < hi with x > v needs hi > v + eps; conservative
        case Pred.Ge   => hi > v
        case Pred.EqOp => lo <= v && v < hi
      }
      case _ => true
    }

  def unpersist(): Unit = {
    cells.unpersist()
    data.unpersist()
  }
}
