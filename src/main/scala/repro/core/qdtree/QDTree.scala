package repro.core.qdtree

import org.roaringbitmap.RoaringBitmap
import scala.collection.immutable.BitSet
import scala.collection.mutable.ArrayBuffer

/** A workload query as routed through the qd-tree: a conjunction of clauses,
  * each clause a disjunction over extracted cut-predicate indices.
  *
  * A plain attribute predicate is a singleton clause; the §4.1.1 centroid
  * constraint `t.c ∈ {c_1..c_m}` is one clause with m `CentroidEq` indices.
  * `weight` is the number of workload queries sharing this shape (filter
  * commonality makes distinct shapes few).
  */
final case class RoutedQuery(clauses: Seq[Seq[Int]], weight: Long)

/** A leaf of the constructed qd-tree.
  *
  * @param leafId   dense id, also the physical `__part` value
  * @param tuples   indices (into the build ordering) of tuples in this leaf
  * @param semantic the paper's semantic description: bit i set iff some tuple
  *                 in the leaf satisfies extracted predicate i
  */
final case class QDLeaf(leafId: Int, tuples: RoaringBitmap, semantic: BitSet) {
  def size: Long = tuples.getLongCardinality
}

/** Balanced qd-tree over predicate-support bitmaps (Algorithms 1 and 2).
  *
  * Construction is driver-side pure bitmap arithmetic: the distributed part
  * (evaluating every extracted predicate over V) happens in the index builder,
  * which hands this class one [[RoaringBitmap]] of satisfying tuple indices
  * per predicate.
  */
final class QDTree(val leaves: Array[QDLeaf],
                   val leafOfTuple: Array[Int]) extends Serializable {

  def numLeaves: Int = leaves.length
}

object QDTree {

  /** Can a partition with semantic description `sem` hold a tuple meeting
    * every clause? An empty clause constrains nothing. The one pruning rule:
    * tree construction and `Routing.ByQDTree` both use it;
    * `Routing.ByQDTree.clauses` is the one reading of a query as clauses.
    */
  def satisfiable(sem: BitSet, clauses: Seq[Seq[Int]]): Boolean =
    clauses.forall(cl => cl.isEmpty || cl.exists(sem.contains))

  /** Build a balanced qd-tree.
    *
    * @param n        number of tuples; tuple indices are 0 until n in the
    *                 builder's collection order
    * @param support  per extracted cut predicate (attribute + centroid), the
    *                 set of tuple indices satisfying it; leaf semantics
    *                 index predicates by their position here
    * @param workload deduplicated workload shapes with weights
    * @param minSize  stop splitting below this partition size (MIN_SIZE)
    *
    * Greedy choice (Algorithm 2) is evaluated *cumulatively*: a candidate's
    * cost is that of splitting by (already-chosen ∪ {candidate}), with the
    * left child = tuples satisfying the disjunction of the chosen predicates.
    * This is the natural reading of Algorithm 1's `P.split(split_predicates)`
    * growing the left side until it passes |P|/2, and it keeps the greedy
    * objective aligned with the actual split being produced.
    */
  def build(n: Int, support: Array[RoaringBitmap],
            workload: Seq[RoutedQuery], minSize: Int): QDTree = {
    val all = new RoaringBitmap()
    if (n > 0) all.add(0L, n.toLong)

    val leaves = new ArrayBuffer[QDLeaf]()
    val leafOf = new Array[Int](n)

    def semanticOf(p: RoaringBitmap): BitSet =
      BitSet.fromSpecific(support.indices.filter(i => RoaringBitmap.intersects(support(i), p)))

    /** Weighted number of child partitions accessed after splitting P into
      * (left, right) — Algorithm 2's cost, i.e. queries routed to both sides
      * count twice.
      */
    def splitCost(left: RoaringBitmap, right: RoaringBitmap, queries: Seq[RoutedQuery]): Long = {
      val semL = semanticOf(left); val semR = semanticOf(right)
      queries.iterator.map { q =>
        var c = 0L
        if (satisfiable(semL, q.clauses)) c += q.weight
        if (satisfiable(semR, q.clauses)) c += q.weight
        c
      }.sum
    }

    def emitLeaf(p: RoaringBitmap): Unit = {
      val id = leaves.length
      leaves += QDLeaf(id, p, semanticOf(p))
      val it = p.getIntIterator
      while (it.hasNext) leafOf(it.next()) = id
    }

    def construct(p: RoaringBitmap, queries: Seq[RoutedQuery]): Unit = {
      val pSize = p.getLongCardinality
      if (pSize <= minSize) { emitLeaf(p); return }

      // Effective candidates: predicates that actually split this partition.
      var candidates = support.indices.filter { i =>
        val c = RoaringBitmap.and(support(i), p).getLongCardinality
        c > 0 && c < pSize
      }.toSet
      if (candidates.isEmpty) { emitLeaf(p); return }

      val chosen = ArrayBuffer.empty[Int]
      var left = new RoaringBitmap()
      while (left.getLongCardinality <= pSize / 2 && candidates.nonEmpty) {
        var bestPred = -1
        var bestCost = Long.MaxValue
        var bestLeft: RoaringBitmap = null
        for (cand <- candidates) {
          val candLeft = RoaringBitmap.or(left, RoaringBitmap.and(support(cand), p))
          // Skip candidates that add nothing or swallow the whole partition.
          val cl = candLeft.getLongCardinality
          if (cl > left.getLongCardinality && cl < pSize) {
            val candRight = RoaringBitmap.andNot(p, candLeft)
            val cost = splitCost(candLeft, candRight, queries)
            if (cost < bestCost) { bestCost = cost; bestPred = cand; bestLeft = candLeft }
          }
        }
        if (bestPred < 0) {
          // No candidate can grow the left side without degenerating.
          candidates = Set.empty
        } else {
          chosen += bestPred
          candidates -= bestPred
          left = bestLeft
        }
      }

      val leftCard = left.getLongCardinality
      if (chosen.isEmpty || leftCard == 0 || leftCard == pSize) { emitLeaf(p); return }

      val right = RoaringBitmap.andNot(p, left)
      val semL = semanticOf(left); val semR = semanticOf(right)
      val qL = queries.filter(q => satisfiable(semL, q.clauses))
      val qR = queries.filter(q => satisfiable(semR, q.clauses))
      construct(left, qL)
      construct(right, qR)
    }

    if (n > 0) construct(all, workload) else ()
    new QDTree(leaves.toArray, leafOf)
  }
}
