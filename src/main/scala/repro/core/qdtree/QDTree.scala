package repro.core.qdtree

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
  * @param size     number of tuples in this leaf
  * @param semantic the paper's semantic description: bit i set iff some tuple
  *                 in the leaf satisfies extracted predicate i
  */
final case class QDLeaf(leafId: Int, size: Long, semantic: BitSet)

/** Balanced qd-tree over tuple signatures (Algorithms 1 and 2).
  *
  * The algorithms see a tuple only through its *signature*: the set of
  * extracted predicates it satisfies. The distributed part (evaluating every
  * extracted predicate over V) happens in the index builder, which hands this
  * class one signature per tuple. Construction groups equal signatures and
  * runs on the groups: a side's size is a sum of group counts, and its
  * semantic description is the union of its groups' signatures.
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
    * @param sigs     per tuple, in the builder's collection order, the
    *                 extracted cut predicates (attribute + centroid) it
    *                 satisfies; leaf semantics index predicates the same way
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
  def build(sigs: Array[BitSet], workload: Seq[RoutedQuery], minSize: Int): QDTree = {
    // Tuples with one signature always go the same way: group g holds the
    // count(g) tuples whose signature is groups(g).
    val groups = sigs.distinct
    val groupOf = sigs.map(groups.zipWithIndex.toMap)
    val count = new Array[Long](groups.length)
    for (g <- groupOf) count(g) += 1

    val leaves = new ArrayBuffer[QDLeaf]()
    val leafOfGroup = new Array[Int](groups.length)

    def sizeOf(p: Array[Int]): Long = p.iterator.map(count).sum

    def semanticOf(p: Array[Int]): BitSet = p.iterator.map(groups).foldLeft(BitSet.empty)(_ | _)

    /** Weighted number of child partitions accessed after splitting P into
      * (left, right) — Algorithm 2's cost, i.e. queries routed to both sides
      * count twice.
      */
    def splitCost(left: Array[Int], right: Array[Int], queries: Seq[RoutedQuery]): Long = {
      val semL = semanticOf(left); val semR = semanticOf(right)
      queries.iterator.map { q =>
        var c = 0L
        if (satisfiable(semL, q.clauses)) c += q.weight
        if (satisfiable(semR, q.clauses)) c += q.weight
        c
      }.sum
    }

    def emitLeaf(p: Array[Int]): Unit = {
      val id = leaves.length
      leaves += QDLeaf(id, sizeOf(p), semanticOf(p))
      for (g <- p) leafOfGroup(g) = id
    }

    /** `p` is a partition as the groups it holds. */
    def construct(p: Array[Int], queries: Seq[RoutedQuery]): Unit = {
      val pSize = sizeOf(p)
      if (pSize <= minSize) { emitLeaf(p); return }

      // Effective candidates: predicates that actually split this partition.
      // Ascending into a plain Set, not a BitSet: the Set's iteration order
      // decides ties between equal costs, and so the tree.
      var candidates = semanticOf(p).iterator.filter(i => sizeOf(p.filter(groups(_)(i))) < pSize).toSet
      if (candidates.isEmpty) { emitLeaf(p); return }

      val inLeft = new Array[Boolean](groups.length)
      var leftSize = 0L
      while (leftSize <= pSize / 2 && candidates.nonEmpty) {
        var bestPred = -1
        var bestCost = Long.MaxValue
        for (cand <- candidates) {
          val (candLeft, candRight) = p.partition(g => inLeft(g) || groups(g)(cand))
          // Skip candidates that add nothing or swallow the whole partition.
          val cl = sizeOf(candLeft)
          if (cl > leftSize && cl < pSize) {
            val cost = splitCost(candLeft, candRight, queries)
            if (cost < bestCost) { bestCost = cost; bestPred = cand }
          }
        }
        if (bestPred < 0) {
          // No candidate can grow the left side without degenerating.
          candidates = Set.empty
        } else {
          candidates -= bestPred
          for (g <- p if groups(g)(bestPred)) inLeft(g) = true
          leftSize = sizeOf(p.filter(inLeft))
        }
      }

      val (left, right) = p.partition(inLeft)
      if (left.isEmpty) { emitLeaf(p); return }
      val semL = semanticOf(left); val semR = semanticOf(right)
      val qL = queries.filter(q => satisfiable(semL, q.clauses))
      val qR = queries.filter(q => satisfiable(semR, q.clauses))
      construct(left, qL)
      construct(right, qR)
    }

    if (groups.nonEmpty) construct(groups.indices.toArray, workload)
    new QDTree(leaves.toArray, groupOf.map(leafOfGroup))
  }
}
