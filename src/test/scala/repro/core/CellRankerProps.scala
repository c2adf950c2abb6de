package repro.core

import org.scalacheck.{Gen, Prop, Properties}

import repro.core.engine.CellRanker
import repro.core.vec.{BatchScorer, Block, Metric, TopK}

/** Batched cell ranking against the per-query ranking it replaced: one
  * [[TopK]] per query, fed each routed partition's centroids with their
  * probe keys `(partition, cell)`.
  */
object CellRankerProps extends Properties("rank") {

  /** A coarse grid, so centroids repeat and scores tie. */
  private val gridVal: Gen[Float] = Gen.chooseNum(0, 3).map(_ / 4.0f)

  private final case class Case(d: Int, parts: List[List[Array[Float]]], queries: List[Array[Float]],
                                nprobe: List[Int])

  private val cases: Gen[Case] = for {
    d <- Gen.chooseNum(1, 4)
    v = Gen.containerOfN[Array, Float](d, gridVal)
    numParts <- Gen.chooseNum(0, 4)
    parts <- Gen.listOfN(numParts, Gen.chooseNum(0, 7).flatMap(Gen.listOfN(_, v)))
    j <- Gen.chooseNum(0, 3)
    r <- Gen.chooseNum(0, 3)
    queries <- Gen.listOfN(math.max(1, 4 * j + r), v)
    nprobe <- Gen.listOfN(queries.size, Gen.chooseNum(1, parts.map(_.size).sum + 2))
  } yield Case(d, parts, queries, nprobe)

  private def key(part: Int, cell: Int): Long = (part.toLong << 32) | cell

  /** The ranking before batching: per query, one heap over every partition. */
  private def perQuery(c: Case, q: Int): Set[Long] = {
    val scorer = new BatchScorer
    val heap = new TopK(c.nprobe(q))
    for ((cents, p) <- c.parts.zipWithIndex) {
      val block = Block(cents.indices.map(key(p, _)).toArray, cents.toArray, c.d)
      scorer.push(heap, scorer.scores(Array(c.queries(q)), block, Metric.L2), 0, block)
    }
    (0 until heap.size).map(heap.idAt).toSet
  }

  property("batched partial select picks the cells of a per-query TopK, ties and empty sets included") =
    Prop.forAll(cases) { c =>
      // The routed set as the engine ranks it: every partition's centroids
      // in one block, whose ids are dense cell indices.
      val keys = for ((cents, p) <- c.parts.zipWithIndex; i <- cents.indices) yield key(p, i)
      val n = keys.size
      val block = Block(Array.tabulate(n)(_.toLong), c.parts.flatten.toArray, c.d)
      val nq = c.queries.size
      val nprobe = c.nprobe.toArray
      val off = nprobe.scanLeft(0)((o, np) => o + math.min(np, n))
      val out = new Array[Int](off.last)
      val qs = Array.range(0, nq)
      val ranker = new CellRanker
      // Two calls, so the second starts mid-group.
      ranker.rank(block, c.queries.flatten.toArray, c.d, qs, 0, nq / 2, nprobe, out, off)
      ranker.rank(block, c.queries.flatten.toArray, c.d, qs, nq / 2, nq, nprobe, out, off)
      (0 until nq).forall { q =>
        val got = out.slice(off(q), off(q + 1)).map(keys(_))
        got.distinct.length == got.length && got.toSet == perQuery(c, q)
      }
    }
}
