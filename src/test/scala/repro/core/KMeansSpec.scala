package repro.core

import org.scalatest.funsuite.AnyFunSuite
import scala.util.Random

import repro.core.vec.{KMeans, Metric, VectorOps}

class KMeansSpec extends AnyFunSuite {

  private def blob(center: Array[Float], n: Int, spread: Float, rnd: Random): Array[Array[Float]] =
    Array.fill(n)(center.map(c => c + (rnd.nextGaussian() * spread).toFloat))

  test("recovers well-separated cluster structure") {
    val rnd = new Random(1)
    val c1 = Array(0f, 0f); val c2 = Array(10f, 10f); val c3 = Array(-10f, 10f)
    val data = blob(c1, 100, 0.3f, rnd) ++ blob(c2, 100, 0.3f, rnd) ++ blob(c3, 100, 0.3f, rnd)
    val cents = KMeans.train(data, 3, seed = 5)
    // Each true center should have a learned centroid within 1.0.
    for (c <- Seq(c1, c2, c3)) {
      val d = cents.map(VectorOps.l2Sq(c, _)).min
      assert(d < 1.0f, s"no centroid near ${c.toSeq}: min dist $d")
    }
  }

  test("is deterministic in the seed") {
    val rnd = new Random(2)
    val data = blob(Array(1f, 2f), 200, 1f, rnd)
    val a = KMeans.train(data, 5, seed = 9)
    val b = KMeans.train(data, 5, seed = 9)
    assert(a.zip(b).forall { case (x, y) => x.sameElements(y) })
  }

  test("different seeds may differ but both partition the space") {
    val rnd = new Random(3)
    val data = blob(Array(0f), 300, 2f, rnd)
    val a = KMeans.train(data, 4, seed = 1)
    assert(a.length == 4)
  }

  test("caps k at the number of points") {
    val data = Array(Array(1f), Array(2f))
    val cents = KMeans.train(data, 10)
    assert(cents.length == 2)
  }

  test("k=1 yields (approximately) the mean") {
    val data = Array(Array(0f, 0f), Array(2f, 4f), Array(4f, 2f))
    val cents = KMeans.train(data, 1)
    assert(VectorOps.l2Sq(cents(0), Array(2f, 2f)) < 1e-6f)
  }

  test("rejects empty input") {
    intercept[IllegalArgumentException](KMeans.train(Array.empty, 3))
  }

  test("no NaN centroids even on degenerate (all-identical) input") {
    val data = Array.fill(50)(Array(3f, 3f))
    val cents = KMeans.train(data, 4)
    assert(cents.forall(_.forall(f => !f.isNaN)))
  }

  test("training reduces quantization error versus a single random centroid") {
    val rnd = new Random(4)
    val data = blob(Array(0f, 0f), 150, 1f, rnd) ++ blob(Array(8f, 8f), 150, 1f, rnd)
    def err(cents: Array[Array[Float]]): Double =
      data.map(v => cents.map(VectorOps.l2Sq(v, _)).min.toDouble).sum
    val trained = KMeans.train(data, 2, seed = 6)
    val single = KMeans.train(data, 1, seed = 6)
    assert(err(trained) < err(single))
  }

  test("sampleCap bounds the training set but still returns k centroids") {
    val rnd = new Random(5)
    val data = blob(Array(0f), 1000, 1f, rnd)
    val cents = KMeans.train(data, 8, sampleCap = 100)
    assert(cents.length == 8)
  }

  private def bits(cents: Array[Array[Float]]): Seq[Seq[Int]] =
    cents.map(_.map(java.lang.Float.floatToRawIntBits).toSeq).toSeq

  test("train matches the metric-generic k-means it replaced, run with L2, bit for bit") {
    val rnd = new Random(6)
    val random = Array.fill(300)(Array.fill(5)(rnd.nextGaussian().toFloat * 3))
    // Coordinates on a 1/8 grid in [0, 1): many duplicate points and tied
    // distances, so seeding and assignment hit their tie rules.
    val grid = Array.fill(400)(Array.fill(3)(rnd.nextInt(8) / 8f))
    // n = 4099: not a multiple of 4 (the kernel's query group) and more than
    // one parallel chunk of points; its √n = 64 cells, and 17 for n = 300,
    // are not multiples of every lane count.
    val large = Array.fill(4099)(Array.fill(4)(rnd.nextGaussian().toFloat))
    val line = Array.fill(257)(Array(rnd.nextGaussian().toFloat)) // d = 1
    // Six distinct points, many copies each: with more cells than points,
    // seeding draws duplicates whose clusters come out empty and are re-seeded.
    val few = Array.fill(6)(Array.fill(2)(rnd.nextInt(8) / 8f))
    val dups = Array.fill(90)(few(rnd.nextInt(few.length)).clone())
    var reseeds = 0
    for (data <- Seq(random, grid, large, line, dups);
         k <- Seq(1, 3, KMeans.sqrtCells(data.length), data.length);
         seed <- Seq(1L, 42L))
      assert(bits(KMeans.train(data, k, seed = seed)) ==
             bits(MetricKMeans.train(data, k, Metric.L2, seed, onReseed = () => reseeds += 1)),
             s"n=${data.length} d=${data(0).length} k=$k seed=$seed")
    assert(reseeds > 0, "no fixture reached the dead-cluster re-seed")
    // The sampleCap path: training on a seeded subsample.
    assert(bits(KMeans.train(random, 12, seed = 3, sampleCap = 100)) ==
           bits(MetricKMeans.train(random, 12, Metric.L2, 3, sampleCap = 100)))
  }

  test("train returns the same bits on one thread and on three") {
    val rnd = new Random(9)
    val data = Array.fill(10000)(Array.fill(6)(rnd.nextGaussian().toFloat))
    def on(threads: Int): Array[Array[Float]] = {
      val pool = new java.util.concurrent.ForkJoinPool(threads)
      try pool.submit(() => KMeans.train(data, 100, seed = 11, sampleCap = Int.MaxValue)).get()
      finally pool.shutdown()
    }
    assert(bits(on(1)) == bits(on(3)))
  }

  test("sqrtCells is round(sqrt(n)) with a floor of 1") {
    assert(KMeans.sqrtCells(0) == 1)
    assert(KMeans.sqrtCells(1) == 1)
    assert(KMeans.sqrtCells(100) == 10)
    assert(KMeans.sqrtCells(10000) == 100)
    assert(KMeans.sqrtCells(99) == 10)
  }
}

/** k-means as it was when it took a metric: seeding shifts every score by
  * the minimum so negative (inner-product) scores can weight a draw, and
  * every score is one scalar [[Metric.score]] on one thread. Kept only to
  * show that the L2-only, batched and parallel [[KMeans.train]] returns the
  * same bits; `onReseed` runs at each dead-cluster re-seed.
  */
private object MetricKMeans {

  private def nearest(q: Array[Float], centroids: Array[Array[Float]], metric: Metric): Int = {
    var best = 0; var bestS = Float.MaxValue; var i = 0
    while (i < centroids.length) {
      val s = metric.score(q, centroids(i))
      if (s < bestS) { bestS = s; best = i }
      i += 1
    }
    best
  }

  def train(vectors: Array[Array[Float]], k: Int, metric: Metric,
            seed: Long, sampleCap: Int = 50000, onReseed: () => Unit = () => ()): Array[Array[Float]] = {
    val rnd = new Random(seed)
    val data =
      if (vectors.length <= sampleCap) vectors
      else Array.fill(sampleCap)(vectors(rnd.nextInt(vectors.length)))
    val kk = math.max(1, math.min(k, data.length))
    val d = data(0).length
    val centroids = new Array[Array[Float]](kk)
    centroids(0) = data(rnd.nextInt(data.length)).clone()
    val best = Array.fill(data.length)(Float.MaxValue)
    var c = 1
    while (c < kk) {
      var i = 0
      while (i < data.length) {
        val s = metric.score(centroids(c - 1), data(i))
        if (s < best(i)) best(i) = s
        i += 1
      }
      var minS = Float.MaxValue
      best.foreach(s => if (s < minS) minS = s)
      var total = 0.0
      best.foreach(s => total += (s - minS).toDouble)
      if (total <= 0) {
        centroids(c) = data(rnd.nextInt(data.length)).clone()
      } else {
        var r = rnd.nextDouble() * total
        var pick = 0
        var j = 0
        var done = false
        while (j < data.length && !done) {
          r -= (best(j) - minS).toDouble
          if (r <= 0) { pick = j; done = true }
          j += 1
        }
        centroids(c) = data(pick).clone()
      }
      c += 1
    }
    val assign = new Array[Int](data.length)
    var it = 0
    while (it < KMeans.Iters) {
      var i = 0
      while (i < data.length) { assign(i) = nearest(data(i), centroids, metric); i += 1 }
      val sums = Array.ofDim[Double](kk, d)
      val counts = new Array[Int](kk)
      i = 0
      while (i < data.length) {
        val a = assign(i); val v = data(i)
        counts(a) += 1
        var j = 0
        while (j < d) { sums(a)(j) += v(j); j += 1 }
        i += 1
      }
      var ci = 0
      while (ci < kk) {
        if (counts(ci) > 0) {
          val cv = new Array[Float](d)
          var j = 0
          while (j < d) { cv(j) = (sums(ci)(j) / counts(ci)).toFloat; j += 1 }
          centroids(ci) = cv
        } else {
          onReseed()
          var worst = 0; var worstS = Float.MinValue
          var j = 0
          while (j < data.length) {
            val s = metric.score(data(j), centroids(assign(j)))
            if (s > worstS) { worstS = s; worst = j }
            j += 1
          }
          centroids(ci) = data(worst).clone()
        }
        ci += 1
      }
      it += 1
    }
    centroids
  }
}
