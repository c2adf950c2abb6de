package repro.core

import org.scalatest.funsuite.AnyFunSuite
import scala.util.Random

import repro.core.vec.{BatchScorer, Block, Metric, TopK, VectorOps}

class VectorOpsSpec extends AnyFunSuite {

  private def randGridVec(rnd: Random, d: Int): Array[Float] =
    Array.fill(d)((rnd.nextInt(65) - 32) / 8.0f) // multiples of 1/8: exact in float

  private def block(rows: Array[Array[Float]]): Block =
    Block(rows.indices.map(_.toLong).toArray, rows, rows.headOption.fold(1)(_.length))

  // The batchScores cases exercise the batch kernel, BatchScorer.scores,
  // whose flat output holds score(q(i), d(j)) at i * stride + j.
  private def assertPairwise(q: Array[Array[Float]], d: Array[Array[Float]], m: Metric): Unit = {
    val b = block(d)
    val flat = new BatchScorer().scores(q, b, m)
    for (i <- q.indices; j <- d.indices)
      assert(flat(i * b.stride + j) == m.score(q(i), d(j)),
             s"${m.name} mismatch at ($i,$j): ${flat(i * b.stride + j)} vs ${m.score(q(i), d(j))}")
  }

  test("l2Sq of identical vectors is zero") {
    val v = Array(1f, 2f, 3f)
    assert(VectorOps.l2Sq(v, v) == 0f)
  }

  test("l2Sq matches hand computation") {
    assert(VectorOps.l2Sq(Array(0f, 0f), Array(3f, 4f)) == 25f)
  }

  test("dot matches hand computation") {
    assert(VectorOps.dot(Array(1f, 2f, 3f), Array(4f, 5f, 6f)) == 32f)
  }

  test("L2 metric score is l2Sq") {
    assert(Metric.L2.score(Array(1f, 1f), Array(2f, 3f)) == 5f)
  }

  test("IP metric score is negated dot (lower = more similar)") {
    assert(Metric.IP.score(Array(1f, 2f), Array(3f, 4f)) == -11f)
  }

  test("Metric.fromName roundtrips and rejects unknown") {
    assert(Metric.fromName("L2") == Metric.L2)
    assert(Metric.fromName("IP") == Metric.IP)
    intercept[IllegalArgumentException](Metric.fromName("cosine"))
  }

  test("l2Sq is symmetric over random vectors") {
    val rnd = new Random(1)
    for (_ <- 0 until 200) {
      val a = randGridVec(rnd, 8); val b = randGridVec(rnd, 8)
      assert(VectorOps.l2Sq(a, b) == VectorOps.l2Sq(b, a))
    }
  }

  test("batchScores(L2) equals pairwise scores on exactly representable data") {
    val rnd = new Random(2)
    for (_ <- 0 until 50) {
      assertPairwise(Array.fill(4)(randGridVec(rnd, 6)), Array.fill(9)(randGridVec(rnd, 6)), Metric.L2)
    }
  }

  test("batchScores(IP) equals pairwise scores") {
    val rnd = new Random(3)
    for (_ <- 0 until 50) {
      assertPairwise(Array.fill(3)(randGridVec(rnd, 6)), Array.fill(7)(randGridVec(rnd, 6)), Metric.IP)
    }
  }

  // Named after the earlier SGEMM path; 32 queries x 40 rows now cover several
  // 4-query groups and several lane runs of the block kernel.
  test("batchScores GEMM path (large groups) agrees with pairwise on grid data") {
    val rnd = new Random(11)
    val q = Array.fill(32)(randGridVec(rnd, 8))
    val d = Array.fill(40)(randGridVec(rnd, 8))
    for (m <- Seq[Metric](Metric.L2, Metric.IP)) assertPairwise(q, d, m)
  }

  test("batchScores with empty data returns empty rows") {
    assert(new BatchScorer().scores(Array(Array(1f, 2f)), block(Array.empty), Metric.L2).isEmpty)
  }

  test("batchScores with no queries returns no rows") {
    assert(new BatchScorer().scores(Array.empty, block(Array(Array(1f))), Metric.L2).isEmpty)
  }

  test("nearest returns the argmin centroid") {
    val cents = Array(Array(0f, 0f), Array(10f, 10f), Array(5f, 5f))
    assert(VectorOps.nearest(Array(4f, 4f), cents) == 2)
    assert(VectorOps.nearest(Array(9f, 9f), cents) == 1)
  }

  test("nearestN returns centroids closest-first and caps at available") {
    val cents = Array(Array(0f), Array(1f), Array(2f), Array(3f))
    val nn = VectorOps.nearestN(Array(2.2f), cents, 3)
    assert(nn.toSeq == Seq(2, 3, 1))
    assert(VectorOps.nearestN(Array(0f), cents, 10).length == 4)
  }

  test("nearestN(1) agrees with nearest over random inputs") {
    val rnd = new Random(4)
    for (_ <- 0 until 200) {
      val q = randGridVec(rnd, 5)
      val cents = Array.fill(6)(randGridVec(rnd, 5))
      assert(VectorOps.nearestN(q, cents, 1).head ==
             VectorOps.nearest(q, cents))
    }
  }

  test("TopK keeps the k smallest scores") {
    val h = new TopK(3)
    Seq(5f, 1f, 4f, 2f, 3f).zipWithIndex.foreach { case (s, i) => h.push(s, i.toLong) }
    assert(TopKOrder.sorted(h).map(_._1).toSeq == Seq(1f, 2f, 3f))
  }

  test("TopK under capacity returns all pushed entries") {
    val h = new TopK(10)
    h.push(2f, 7L); h.push(1f, 3L)
    assert(TopKOrder.sorted(h) == Seq((1f, 3L), (2f, 7L)))
  }

  test("TopK breaks score ties towards lower ids") {
    val h = new TopK(2)
    h.push(1f, 9L); h.push(1f, 2L); h.push(1f, 5L)
    assert(TopKOrder.sorted(h).map(_._2).toSeq == Seq(2L, 5L))
  }

  test("TopK equals sort-take on random input") {
    val rnd = new Random(5)
    for (_ <- 0 until 300) {
      val k = 1 + rnd.nextInt(12)
      val xs = List.fill(40)((rnd.nextInt(50).toFloat, rnd.nextLong(100)))
      val h = new TopK(k)
      xs.foreach { case (s, id) => h.push(s, id) }
      assert(TopKOrder.sorted(h) == xs.sortBy(t => (t._1, t._2)).take(k))
    }
  }

  test("TopK threshold is +inf under capacity, then the worst retained score") {
    val h = new TopK(2)
    assert(h.threshold == Float.MaxValue)
    h.push(1f, 1L)
    assert(h.threshold == Float.MaxValue)
    h.push(5f, 2L)
    assert(h.threshold == 5f)
    h.push(2f, 3L)
    assert(h.threshold == 2f)
  }
}

/** A heap's entries best-first, through the one sort the engine uses. */
object TopKOrder {
  def sorted(h: TopK): Seq[(Float, Long)] = {
    val scores = Array.tabulate(h.size)(h.scoreAt)
    val ids = Array.tabulate(h.size)(h.idAt)
    TopK.sort(scores, ids, null, 0, h.size, h.size)
    scores.toSeq.zip(ids)
  }
}
