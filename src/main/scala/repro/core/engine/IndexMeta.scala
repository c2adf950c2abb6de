package repro.core.engine

import org.apache.spark.broadcast.Broadcast
import org.apache.spark.rdd.RDD
import org.apache.spark.sql.DataFrame

import scala.collection.immutable.BitSet
import scala.collection.mutable

import repro.core.qdtree.{Pred, QDTree}
import repro.core.vec.{Metric, VectorOps}
import repro.workload.Template

/** Which partitions a conjunction of predicates can touch — the one pruning
  * rule behind engine routing, `format("hqi")` filter pushdown and what a
  * store persists. Each layout's routing carries the data it routes by.
  */
sealed trait Routing extends Serializable {
  /** Partitions, out of `numParts`, that may hold a tuple satisfying every
    * predicate of `conjunction`; `qvec` adds the query vector's constraint
    * when the routing has one (pruning is always safe without it).
    */
  def route(conjunction: Seq[Pred], qvec: Option[Array[Float]], numParts: Int): Seq[Int]
  /** Whether routes depend on the query vector, not only on the predicates. */
  def perQuery: Boolean = false
}
object Routing {
  /** Every query visits every partition (PreFilter / PostFilter / flat). */
  case object All extends Routing {
    def route(conjunction: Seq[Pred], qvec: Option[Array[Float]], numParts: Int): Seq[Int] = 0 until numParts
  }
  /** Semantic-description routing over the qd-tree's leaves (§4.1.3): leaf
    * `i` may hold a tuple meeting every clause per `semantics(i)`, whose bit
    * `j` is set iff some tuple of the leaf satisfies `preds(j)`. Predicates
    * the tree was never trained on (matched by value) constrain nothing.
    */
  final case class ByQDTree(preds: Array[Pred], semantics: Array[BitSet],
                            centroids: Option[CentroidRouting] = None) extends Routing {
    @transient private lazy val predIndex: Map[Pred, Int] = preds.zipWithIndex.toMap
    override def perQuery: Boolean = centroids.isDefined
    /** A query as clauses over `preds`, the one reading shared by routing
      * and the qd-tree build's workload model: a singleton clause per known
      * predicate of `conjunction`, plus, with centroid routing and a query
      * vector, the disjunction of its `m` nearest global centroids. That
      * clause is empty, and constrains nothing, when no centroid predicate
      * was extracted.
      */
    def clauses(conjunction: Seq[Pred], qvec: Option[Array[Float]]): Seq[Seq[Int]] = {
      val centroidClause = for (c <- centroids.toSeq; v <- qvec.toSeq) yield
        VectorOps.nearestN(v, c.global, c.m).toSeq.flatMap(i => predIndex.get(Pred.CentroidEq(i)))
      conjunction.flatMap(predIndex.get).map(Seq(_)) ++ centroidClause
    }
    def route(conjunction: Seq[Pred], qvec: Option[Array[Float]], numParts: Int): Seq[Int] = {
      val cs = clauses(conjunction, qvec)
      semantics.indices.filter(l => QDTree.satisfiable(semantics(l), cs))
    }
  }
  /** The §4.1.1 centroid constraint: each query is routed with its `m`
    * nearest `global` centroids, so routing is per query, not per template.
    */
  final case class CentroidRouting(m: Int, global: Array[Array[Float]])
  /** Range-partitioned on one numeric attribute (Strategy C); partition `i`
    * covers `[bounds(i)._1, bounds(i)._2)`. Predicates on other attributes
    * cannot prune range partitions (the paper's point about Strategy C and
    * non-partitioning attributes).
    */
  final case class ByRange(attr: String, bounds: IndexedSeq[(Double, Double)]) extends Routing {
    def route(conjunction: Seq[Pred], qvec: Option[Array[Float]], numParts: Int): Seq[Int] =
      bounds.indices.filter { p =>
        val (lo, hi) = bounds(p)
        conjunction.forall {
          case Pred.NumCmp(a, op, v) if a == attr => op match {
            case Pred.Lt   => lo < v
            case Pred.Le   => lo <= v
            case Pred.Gt   => hi > v       // hi is exclusive: some x < hi with x > v needs hi > v + eps; conservative
            case Pred.Ge   => hi > v
            case Pred.EqOp => lo <= v && v < hi
          }
          case _ => true
        }
      }
  }
}

/** Driver-side metadata for one physical partition (`__part` value).
  *
  * @param centroids IVF cell centroids; `__cluster` on the data is the index
  *                  of the nearest centroid here
  */
final case class LeafMeta(partId: Int, size: Long, centroids: Array[Array[Float]])

/** Successive laps of one monotonic clock, in ms: the laps sum to [[total]].
  * Times the phases of index builds and batch passes.
  */
private[engine] final class Laps {
  private val t0 = System.nanoTime()
  private var last = t0
  def lap(): Double = { val t = System.nanoTime(); val ms = (t - last) / 1e6; last = t; ms }
  def total: Double = (last - t0) / 1e6
}

/** Wall time of each phase of an index build, in whole ms. The four wall
  * phases (collect, partition, leaf IVF, layout) are disjoint laps of one
  * monotonic clock, each rounded down, so they sum to at most
  * [[PartitionedIndex.buildMillis]].
  *
  * @param collectMs    the `(id, vec)` collect, with every predicate's
  *                     support evaluated in the same pass (HQI)
  * @param partitionMs  choosing each tuple's partition: global centroids and
  *                     qd-tree (HQI), equi-depth cuts (Range), none (flat)
  * @param leafIvfMs    per-partition IVF training and cell assignment (wall;
  *                     partitions train in parallel)
  * @param leafIvfSumMs the same work summed over partitions
  * @param leafIvfMaxMs the slowest partition's share of it
  * @param layoutMs     layout columns, repartition and posting-list decode
  *                     (materialize)
  */
final case class BuildPhases(collectMs: Long, partitionMs: Long, leafIvfMs: Long,
                             leafIvfSumMs: Long, leafIvfMaxMs: Long, layoutMs: Long)

/** A built, partitioned vector index. Its only resident copy is `cells`:
  * the decoded posting lists, one persisted map from dense cell index to
  * [[BatchEngine.Cell]] per Spark partition of the input repartitioned by
  * `(__part, __cluster)`, which every batch pass scans. `data` is an
  * uncached view of the input with the layout columns (`id, vec, <attrs…>,
  * __part, __cluster`, partitioned as the input is), from which an evicted
  * cell map is recomputed; its layout UDF reads each row's placement from
  * the broadcast `placement`, which the index owns. Everything needed for
  * routing/probing is driver metadata.
  */
final class PartitionedIndex(val name: String,
                             val data: DataFrame,
                             private[core] val cells: RDD[mutable.HashMap[Int, BatchEngine.Cell]],
                             private[core] val placement: Broadcast[_],
                             val attrCols: Seq[String],
                             val metric: Metric,
                             val leaves: Array[LeafMeta],
                             val routing: Routing,
                             val buildMillis: Long,
                             val buildPhases: BuildPhases) extends Serializable {

  /** Leaf `p`; every builder puts it at position `p` of `leaves`. */
  def leafById(p: Int): LeafMeta = leaves(p)

  /** See [[BatchEngine.cellBase]]; leaf `p` is `leaves(p)`. */
  private[engine] val cellBase: Array[Int] = BatchEngine.cellBase(leaves)

  def numPartitions: Int = leaves.length
  def totalRows: Long = leaves.map(_.size).sum

  /** Partitions a query with this template and vector must visit. */
  def route(template: Template, qvec: Array[Float]): Seq[Int] =
    routing.route(template.preds, Some(qvec), numPartitions)

  /** Drops `cells` and destroys `placement`: afterwards `data` and passes
    * over this index can no longer be evaluated.
    */
  def unpersist(): Unit = {
    cells.unpersist()
    placement.destroy()
  }
}
