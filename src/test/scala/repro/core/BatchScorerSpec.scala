package repro.core

import org.scalatest.funsuite.AnyFunSuite
import scala.util.Random

import repro.core.vec.{BatchScorer, Block, Metric, TopK}

/** The block kernel must reproduce `Metric.score` bit for bit on arbitrary
  * floats, for every query-group remainder (4-query and 1-query code) and
  * every row remainder (padding lanes), and stay correct across calls of
  * varying shapes — buffer reuse is where stale-data bugs live.
  */
class BatchScorerSpec extends AnyFunSuite {

  private val lanes = BatchScorer.Lanes
  private val metrics = Seq[Metric](Metric.IP, Metric.L2)

  /** Arbitrary floats: no grid, so any reassociation or fused multiply-add
    * in the kernel changes the low bits of some score.
    */
  private def vec(rnd: Random, d: Int): Array[Float] = Array.fill(d)(rnd.nextFloat() * 4f - 2f)

  private def block(rows: Array[Array[Float]], d: Int): Block =
    Block(rows.indices.map(_.toLong).toArray, rows, d)

  private def check(scorer: BatchScorer, m: Int, n: Int, d: Int, metric: Metric, seed: Long): Unit = {
    val rnd = new Random(seed)
    val q = Array.fill(m)(vec(rnd, d))
    val x = Array.fill(n)(vec(rnd, d))
    val b = block(x, d)
    val flat = scorer.scores(q, b, metric)
    for (i <- 0 until m; j <- 0 until n)
      assert(flat(i * b.stride + j) == metric.score(q(i), x(j)), s"($i,$j) m=$m n=$n d=$d ${metric.name}")
  }

  test("every score equals Metric.score exactly over m x n x d shapes, both metrics") {
    val s = new BatchScorer
    var seed = 0L
    for (m <- Seq(1, 3, 4, 5, 60); n <- Seq(1, lanes - 1, lanes, lanes + 1, 290).filter(_ > 0);
         d <- Seq(1, 8, 32); metric <- metrics) {
      seed += 1
      check(s, m, n, d, metric, seed)
    }
  }

  // The two "paths" below are the kernel's 1-query remainder loop (m < 4) and
  // its 4-query groups (m a multiple of 4); their shapes are the ones the
  // earlier scalar and SGEMM paths were checked on.
  test("single call correctness (scalar path)") {
    check(new BatchScorer, 3, 5, 4, Metric.L2, 1)
    check(new BatchScorer, 3, 5, 4, Metric.IP, 1)
  }

  test("single call correctness (GEMM path)") {
    check(new BatchScorer, 32, 64, 8, Metric.L2, 2)
    check(new BatchScorer, 32, 64, 8, Metric.IP, 3)
  }

  test("d=1 vectors work on both paths") {
    check(new BatchScorer, 2, 2, 1, Metric.L2, 8)     // 1-query loop
    check(new BatchScorer, 80, 80, 1, Metric.IP, 9)   // 4-query groups
  }

  test("repeated calls with shrinking shapes never read stale buffer contents") {
    val s = new BatchScorer
    check(s, 40, 50, 8, Metric.L2, 4)   // big first — grows buffers
    check(s, 2, 3, 8, Metric.L2, 5)     // tiny after — must not see stale data
    check(s, 17, 29, 8, Metric.IP, 6)
    check(s, 40, 50, 8, Metric.IP, 7)
  }

  test("alternating metrics on one scorer") {
    val s = new BatchScorer
    for (seed <- 1 to 10)
      check(s, 8 + seed, 16 + seed, 8, if (seed % 2 == 0) Metric.L2 else Metric.IP, seed + 100)
  }

  test("empty inputs return an empty buffer") {
    val s = new BatchScorer
    assert(s.scores(Array.empty, block(Array(Array(1f)), 1), Metric.L2).isEmpty)
    assert(s.scores(Array(Array(1f)), block(Array.empty, 1), Metric.L2).isEmpty)
  }

  test("gathered rows score exactly like the same rows in place, d in {1, 8, 32}") {
    val s = new BatchScorer
    val rnd = new Random(11)
    for (d <- Seq(32, 1, 8); n <- Seq(290, lanes + 1, 3); metric <- metrics) {
      val x = Array.fill(n)(vec(rnd, d))
      val q = Array.fill(5)(vec(rnd, d))
      val rows = (0 until n).filter(_ => rnd.nextBoolean()).toArray
      val g = s.gather(block(x, d), rows, rows.length)
      assert(g.n == rows.length && g.ids.take(g.n).toSeq == rows.map(_.toLong).toSeq)
      val flat = s.scores(q, g, metric)
      for (i <- q.indices; c <- rows.indices)
        assert(flat(i * g.stride + c) == metric.score(q(i), x(rows(c))), s"($i,$c) n=$n d=$d ${metric.name}")
    }
  }

  test("queries picked by index from one flat array score exactly like the same rows") {
    val s = new BatchScorer
    val rnd = new Random(13)
    for (d <- Seq(1, 8, 32); m <- Seq(1, 3, 4, 9); metric <- metrics) {
      val q = Array.fill(12)(vec(rnd, d))
      val x = Array.fill(lanes + 3)(vec(rnd, d))
      val b = block(x, d)
      val picked = Array.fill(m + 2)(rnd.nextInt(q.length))
      val flat = s.scores(q.flatten, d, picked, 2, m + 2, b, metric)
      for (i <- 0 until m; j <- x.indices)
        assert(flat(i * b.stride + j) == metric.score(q(picked(i + 2)), x(j)), s"($i,$j) m=$m d=$d ${metric.name}")
    }
  }

  test("push skipping lane runs above a full heap's threshold keeps exactly what per-row pushes keep") {
    val s = new BatchScorer
    val rnd = new Random(12)
    for (k <- Seq(1, 3, 10); n <- Seq(lanes - 1, 5 * lanes + 3)) {
      // Few distinct scores, so ties on the threshold exercise the id order.
      val x = Array.fill(n)(Array(rnd.nextInt(6).toFloat))
      val b = Block(Array.fill(n)(rnd.nextLong(50)), x, 1)
      val flat = s.scores(Array(Array(1f)), b, Metric.L2)
      val viaPush = new TopK(k); val perRow = new TopK(k)
      for (_ <- 0 until 3) {
        s.push(viaPush, flat, 0, b)
        for (j <- 0 until n) perRow.push(flat(j), b.ids(j))
      }
      assert(TopKOrder.sorted(viaPush) == TopKOrder.sorted(perRow), s"k=$k n=$n")
    }
  }

  test("without the vector module the kernel fails on first use, naming the JVM flag") {
    val java = s"${System.getProperty("java.home")}/bin/java"
    val p = new ProcessBuilder(java, "-cp", System.getProperty("java.class.path"),
                               "repro.core.KernelWithoutVectorModule")
      .redirectErrorStream(true).start()
    val out = new String(p.getInputStream.readAllBytes())
    assert(p.waitFor() != 0, out)
    assert(out.contains("--add-modules=jdk.incubator.vector"), out)
  }
}

/** Runs the kernel in a JVM started without `--add-modules=jdk.incubator.vector`. */
object KernelWithoutVectorModule {
  def main(args: Array[String]): Unit = { new BatchScorer; () }
}
