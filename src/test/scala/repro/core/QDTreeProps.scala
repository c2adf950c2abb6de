package repro.core

import org.roaringbitmap.RoaringBitmap
import org.scalacheck.{Gen, Prop, Properties}
import scala.collection.immutable.BitSet
import scala.collection.mutable.ArrayBuffer
import scala.util.Random

import repro.core.qdtree.{QDTree, RoutedQuery}

/** The qd-tree built over grouped tuple signatures against the per-tuple
  * bitmap construction it replaced: the same leaves, in the same order, with
  * the same tuples and semantic descriptions.
  */
object QDTreeProps extends Properties("qdtree") {

  private final case class Case(n: Int, support: Array[RoaringBitmap], shapes: List[RoutedQuery], minSize: Int)

  private val cases: Gen[Case] = for {
    n <- Gen.chooseNum(0, 400)
    numPreds <- Gen.chooseNum(1, 8)
    // Empty and full supports included: neither is ever a cut.
    sels <- Gen.listOfN(numPreds, Gen.oneOf(0.0, 0.02, 0.1, 0.3, 0.5, 0.8, 1.0))
    seed <- Gen.long
    pred = Gen.chooseNum(0, numPreds - 1)
    clause = Gen.chooseNum(0, 3).flatMap(Gen.listOfN(_, pred))
    // Weights 1–3, so costs tie.
    shape = for (cs <- Gen.chooseNum(0, 3).flatMap(Gen.listOfN(_, clause)); w <- Gen.chooseNum(1, 3))
      yield RoutedQuery(cs, w.toLong)
    shapes <- Gen.chooseNum(0, 6).flatMap(Gen.listOfN(_, shape))
    minSize <- Gen.chooseNum(4, 64)
  } yield {
    val rnd = new Random(seed)
    val support = sels.map { s =>
      val b = new RoaringBitmap()
      for (t <- 0 until n if rnd.nextDouble() < s) b.add(t)
      b
    }.toArray
    Case(n, support, shapes, minSize)
  }

  /** The construction before signatures: bitmap algebra over every tuple.
    * Returns each leaf's (tuples, semantic description), in leaf-id order.
    */
  private def bitmapTree(c: Case): Array[(RoaringBitmap, BitSet)] = {
    val support = c.support
    val leaves = new ArrayBuffer[(RoaringBitmap, BitSet)]()

    def semanticOf(p: RoaringBitmap): BitSet =
      BitSet.fromSpecific(support.indices.filter(i => RoaringBitmap.intersects(support(i), p)))

    def splitCost(left: RoaringBitmap, right: RoaringBitmap, queries: Seq[RoutedQuery]): Long = {
      val semL = semanticOf(left); val semR = semanticOf(right)
      queries.iterator.map { q =>
        var cost = 0L
        if (QDTree.satisfiable(semL, q.clauses)) cost += q.weight
        if (QDTree.satisfiable(semR, q.clauses)) cost += q.weight
        cost
      }.sum
    }

    def emitLeaf(p: RoaringBitmap): Unit = leaves += ((p, semanticOf(p)))

    def construct(p: RoaringBitmap, queries: Seq[RoutedQuery]): Unit = {
      val pSize = p.getLongCardinality
      if (pSize <= c.minSize) { emitLeaf(p); return }
      var candidates = support.indices.filter { i =>
        val card = RoaringBitmap.and(support(i), p).getLongCardinality
        card > 0 && card < pSize
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
          val cl = candLeft.getLongCardinality
          if (cl > left.getLongCardinality && cl < pSize) {
            val cost = splitCost(candLeft, RoaringBitmap.andNot(p, candLeft), queries)
            if (cost < bestCost) { bestCost = cost; bestPred = cand; bestLeft = candLeft }
          }
        }
        if (bestPred < 0) candidates = Set.empty
        else { chosen += bestPred; candidates -= bestPred; left = bestLeft }
      }
      val leftCard = left.getLongCardinality
      if (chosen.isEmpty || leftCard == 0 || leftCard == pSize) { emitLeaf(p); return }
      val right = RoaringBitmap.andNot(p, left)
      val semL = semanticOf(left); val semR = semanticOf(right)
      construct(left, queries.filter(q => QDTree.satisfiable(semL, q.clauses)))
      construct(right, queries.filter(q => QDTree.satisfiable(semR, q.clauses)))
    }

    if (c.n > 0) {
      val all = new RoaringBitmap()
      all.add(0L, c.n.toLong)
      construct(all, c.shapes)
    }
    leaves.toArray
  }

  property("signature tree equals the per-tuple bitmap tree it replaced") =
    Prop.forAll(cases) { c =>
      val sigs = Array.tabulate(c.n)(t => BitSet.fromSpecific(c.support.indices.filter(c.support(_).contains(t))))
      val tree = QDTree.build(sigs, c.shapes, c.minSize)
      val ref = bitmapTree(c)
      val refLeafOf = new Array[Int](c.n)
      for (((tuples, _), id) <- ref.zipWithIndex) tuples.forEach((t: Int) => refLeafOf(t) = id)
      tree.leafOfTuple.sameElements(refLeafOf) &&
        tree.leaves.map(_.size).sameElements(ref.map(_._1.getLongCardinality)) &&
        tree.leaves.map(_.semantic).sameElements(ref.map(_._2)) &&
        tree.leaves.map(_.leafId).sameElements(ref.indices)
    }
}
