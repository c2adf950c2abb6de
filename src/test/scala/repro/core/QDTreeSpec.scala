package repro.core

import org.roaringbitmap.RoaringBitmap
import org.scalatest.funsuite.AnyFunSuite
import scala.collection.immutable.BitSet
import scala.util.Random

import repro.core.engine.Routing
import repro.core.qdtree._

/** Pure driver-side qd-tree invariants: the tree is built from tuple
  * signatures, so these tests draw predicate support bitmaps directly and
  * read each tuple's signature off them.
  */
class QDTreeSpec extends AnyFunSuite {

  private def bm(idxs: Iterable[Int]): RoaringBitmap = {
    val b = new RoaringBitmap(); idxs.foreach(b.add); b
  }

  /** n tuples; each predicate's support drawn iid with probability sel(i). */
  private def randomInstance(n: Int, sels: Seq[Double], seed: Long): Array[RoaringBitmap] = {
    val rnd = new Random(seed)
    sels.map(s => bm((0 until n).filter(_ => rnd.nextDouble() < s))).toArray
  }

  /** Tuple t's signature: the predicates whose support holds t. */
  private def sigsOf(n: Int, support: Array[RoaringBitmap]): Array[BitSet] =
    Array.tabulate(n)(t => BitSet.fromSpecific(support.indices.filter(support(_).contains(t))))

  /** A leaf's tuples, read back from `leafOfTuple`. */
  private def tuplesOf(tree: QDTree, leaf: QDLeaf): RoaringBitmap =
    bm(tree.leafOfTuple.indices.filter(tree.leafOfTuple(_) == leaf.leafId))

  /** Cut predicates for `support`, one per bitmap: what a builder would
    * route by (the tree itself sees only the signatures).
    */
  private def predsOf(support: Array[RoaringBitmap]): Array[Pred] =
    support.indices.map(i => Pred.NotNull(s"a$i"): Pred).toArray

  /** Eq. (1): total tuples accessed to evaluate the workload on a layout. */
  private def cost(tree: QDTree, workload: Seq[RoutedQuery]): Long =
    workload.iterator.map { q =>
      tree.leaves.iterator.filter(l => QDTree.satisfiable(l.semantic, q.clauses)).map(_.size * q.weight).sum
    }.sum

  /** Leaves a query's clauses can touch, by the shared pruning rule. */
  private def routed(tree: QDTree, clauses: Seq[Seq[Int]]): Set[Int] =
    tree.leaves.filter(l => QDTree.satisfiable(l.semantic, clauses)).map(_.leafId).toSet

  private def singletonShapes(predIdxs: Seq[Int], weight: Long = 1): Seq[RoutedQuery] =
    predIdxs.map(i => RoutedQuery(Seq(Seq(i)), weight))

  test("leaves are a disjoint, complete partition of the tuples") {
    val n = 1000
    val support = randomInstance(n, Seq(0.5, 0.2, 0.1, 0.8), 1)
    val tree = QDTree.build(sigsOf(n, support), singletonShapes(0 to 3), minSize = 100)
    val all = new RoaringBitmap()
    var total = 0L
    for (l <- tree.leaves) {
      val tuples = tuplesOf(tree, l)
      assert(!RoaringBitmap.intersects(all, tuples), "leaves overlap")
      assert(tuples.getLongCardinality == l.size, s"leaf ${l.leafId} size")
      all.or(tuples)
      total += l.size
    }
    assert(total == n)
    assert(all.getLongCardinality == n)
  }

  test("leafOfTuple is consistent with leaf tuple sets") {
    val n = 500
    val support = randomInstance(n, Seq(0.5, 0.3), 2)
    val tree = QDTree.build(sigsOf(n, support), singletonShapes(0 to 1), minSize = 50)
    assert(tree.leafOfTuple.length == n)
    assert(tree.leafOfTuple.forall(tree.leaves.indices.contains), "tuple mapped to no leaf")
    for (l <- tree.leaves)
      assert(tree.leafOfTuple.count(_ == l.leafId) == l.size, s"leaf ${l.leafId} size")
  }

  test("semantic description is exact: bit i set iff some leaf tuple satisfies predicate i") {
    val n = 800
    val support = randomInstance(n, Seq(0.5, 0.05, 0.9, 0.01), 3)
    val tree = QDTree.build(sigsOf(n, support), singletonShapes(0 to 3), minSize = 64)
    for (l <- tree.leaves; i <- support.indices) {
      val expected = RoaringBitmap.intersects(support(i), tuplesOf(tree, l))
      assert(l.semantic.contains(i) == expected, s"leaf ${l.leafId} pred $i")
    }
  }

  test("any leaf above MIN_SIZE has no effective splitting predicate left") {
    val n = 1000
    val support = randomInstance(n, Seq(0.5, 0.4, 0.3, 0.6, 0.2), 4)
    val minSize = 100
    val tree = QDTree.build(sigsOf(n, support), singletonShapes(0 to 4), minSize)
    for (l <- tree.leaves if l.size > minSize) {
      val splittable = support.exists { s =>
        val c = RoaringBitmap.and(s, tuplesOf(tree, l)).getLongCardinality
        c > 0 && c < l.size
      }
      assert(!splittable, s"leaf ${l.leafId} of size ${l.size} was still splittable")
    }
  }

  test("routing is safe: every tuple satisfying a conjunctive query lives in a routed leaf") {
    val n = 2000
    val rnd = new Random(5)
    val support = randomInstance(n, Seq(0.5, 0.2, 0.7, 0.1, 0.3, 0.9), 5)
    val shapes = Seq(RoutedQuery(Seq(Seq(0), Seq(1)), 3), RoutedQuery(Seq(Seq(2)), 5),
                     RoutedQuery(Seq(Seq(3), Seq(4)), 1), RoutedQuery(Seq(Seq(5), Seq(0)), 2))
    val tree = QDTree.build(sigsOf(n, support), shapes, minSize = 128)
    for (shape <- shapes) {
      val leaves = routed(tree, shape.clauses)
      // Tuples satisfying every clause:
      val sat = (0 until n).filter(t => shape.clauses.forall(_.exists(p => support(p).contains(t))))
      for (t <- sat)
        assert(leaves.contains(tree.leafOfTuple(t)),
               s"tuple $t satisfies ${shape.clauses} but its leaf is not routed")
      val _ = rnd // silence unused
    }
  }

  test("disjunctive clauses route to any leaf supporting at least one disjunct") {
    // Two predicates with disjoint supports; a query with clause (p0 OR p1)
    // must reach leaves holding either side.
    val n = 400
    val support = Array(bm(0 until 200), bm(200 until 400), bm(0 until 400 by 2))
    val shapes = Seq(RoutedQuery(Seq(Seq(0)), 5), RoutedQuery(Seq(Seq(1)), 5))
    val tree = QDTree.build(sigsOf(n, support), shapes, minSize = 50)
    val both = routed(tree, Seq(Seq(0, 1)))
    val onlyA = routed(tree, Seq(Seq(0)))
    val onlyB = routed(tree, Seq(Seq(1)))
    assert(both == onlyA.union(onlyB))
  }

  test("workload-aware layout prunes: selective templates route to a strict subset of leaves") {
    val n = 4000
    val rnd = new Random(6)
    // Two "type" predicates with disjoint supports plus a rare flag.
    val typeA = (0 until n).filter(_ % 2 == 0)
    val typeB = (0 until n).filter(_ % 2 == 1)
    val rare = (0 until n).filter(_ => rnd.nextDouble() < 0.01)
    val support = Array(bm(typeA), bm(typeB), bm(rare))
    val shapes = Seq(RoutedQuery(Seq(Seq(0)), 50), RoutedQuery(Seq(Seq(1)), 30),
                     RoutedQuery(Seq(Seq(2)), 20))
    val tree = QDTree.build(sigsOf(n, support), shapes, minSize = 256)
    assert(tree.numLeaves >= 2)
    val aLeaves = routed(tree, Seq(Seq(0)))
    val bLeaves = routed(tree, Seq(Seq(1)))
    assert(aLeaves.size < tree.numLeaves, "type-A queries should skip type-B leaves")
    assert(bLeaves.size < tree.numLeaves)
    assert(aLeaves.intersect(bLeaves).isEmpty,
           "disjoint type predicates should produce disjoint leaf sets")
  }

  test("cost of workload-aware layout is lower than the single-partition cost") {
    val n = 3000
    val support = randomInstance(n, Seq(0.3, 0.1, 0.5, 0.05), 7)
    val shapes = singletonShapes(0 to 3, weight = 10)
    val tree = QDTree.build(sigsOf(n, support), shapes, minSize = 128)
    val flat = new QDTree(Array(QDLeaf(0, n.toLong, BitSet.fromSpecific(support.indices))), Array.fill(n)(0))
    assert(cost(tree, shapes) < cost(flat, shapes),
           s"partitioned=${cost(tree, shapes)} flat=${cost(flat, shapes)}")
  }

  test("routePreds ignores predicates the tree does not know (safe direction)") {
    val n = 200
    val support = randomInstance(n, Seq(0.5), 8)
    val tree = QDTree.build(sigsOf(n, support), singletonShapes(Seq(0)), minSize = 32)
    val unknown = Pred.StrEq("nope", "x")
    val routing = Routing.ByQDTree(predsOf(support), tree.leaves.map(_.semantic))
    assert(routing.route(Seq(unknown), None, tree.numLeaves).toSet == tree.leaves.map(_.leafId).toSet)
  }

  test("route with empty constraints reaches every leaf") {
    val n = 300
    val support = randomInstance(n, Seq(0.4, 0.6), 9)
    val tree = QDTree.build(sigsOf(n, support), singletonShapes(0 to 1), minSize = 64)
    assert(routed(tree, Nil) == tree.leaves.map(_.leafId).toSet)
  }

  test("n = 0 yields an empty tree") {
    val tree = QDTree.build(Array.empty, Nil, 16)
    assert(tree.numLeaves == 0)
  }

  test("a partition smaller than MIN_SIZE is not split") {
    val n = 50
    val support = randomInstance(n, Seq(0.5, 0.5), 10)
    val tree = QDTree.build(sigsOf(n, support), singletonShapes(0 to 1), minSize = 100)
    assert(tree.numLeaves == 1)
  }

  test("all-true / all-false predicates are never used as cuts") {
    val n = 400
    val support = Array(bm(0 until n), new RoaringBitmap())
    val tree = QDTree.build(sigsOf(n, support), singletonShapes(0 to 1), minSize = 50)
    assert(tree.numLeaves == 1, "no effective predicate => single leaf")
  }

  test("splits are reasonably balanced with selective predicates (the Algorithm 1 fix)") {
    val n = 4096
    // Only highly selective predicates: the vanilla greedy qd-tree would cut
    // off tiny slivers; the balanced variant unions them to approach n/2.
    val rnd = new Random(11)
    val sels = Seq.fill(30)(0.05)
    val support = randomInstance(n, sels, 12)
    val tree = QDTree.build(sigsOf(n, support), singletonShapes(sels.indices), minSize = 512)
    assert(tree.numLeaves >= 2)
    // No leaf should hold the overwhelming majority of tuples.
    val maxLeaf = tree.leaves.map(_.size).max
    assert(maxLeaf <= (n * 3) / 4, s"imbalanced: max leaf $maxLeaf of $n; ${rnd.nextInt(1)}")
  }

  test("cost function weights queries (Eq. 1)") {
    val n = 100
    val support = Array(bm(0 until 50))
    val tree = QDTree.build(sigsOf(n, support), singletonShapes(Seq(0), 1), minSize = 10)
    val light = cost(tree, Seq(RoutedQuery(Seq(Seq(0)), 1)))
    val heavy = cost(tree, Seq(RoutedQuery(Seq(Seq(0)), 10)))
    assert(heavy == light * 10)
  }
}
