package repro.core.vec

import scala.util.Random

/** Seeded Lloyd's k-means under squared L2 over float vectors, used for
  *   (i) the global centroid attribute `t.c` of §4.1.1, and
  *   (ii) per-partition IVF cell training (√n cells, §4.1.3).
  *
  * Both are coarse quantizers, which (as in FAISS) are trained and probed
  * under L2 whatever metric scores the candidates ([[repro.core.ivf.IVF]]),
  * so this is the only metric k-means knows.
  *
  * Driver-side by design: at reproduction scale (≤200k × d≤48) training on a
  * bounded sample is orders of magnitude cheaper than a distributed
  * implementation and keeps results deterministic in `seed`. The index
  * builder assigns the *full* collected dataset to centroids on the driver too.
  */
object KMeans {

  /** Lloyd iterations after seeding. */
  val Iters = 10

  /** Train `k` centroids with kmeans++-style seeding followed by [[Iters]]
    * Lloyd iterations. Empty clusters are re-seeded from the point furthest
    * from its centroid so exactly `min(k, distinct points)` non-degenerate
    * centroids come back.
    */
  def train(vectors: Array[Array[Float]], k: Int,
            seed: Long = 42, sampleCap: Int = 50000): Array[Array[Float]] = {
    require(vectors.nonEmpty, "cannot train k-means on an empty vector set")
    val rnd = new Random(seed)
    val data =
      if (vectors.length <= sampleCap) vectors
      else Array.fill(sampleCap)(vectors(rnd.nextInt(vectors.length)))
    val kk = math.max(1, math.min(k, data.length))
    val d = data(0).length

    // kmeans++-lite init: first centroid uniform, then weight by squared
    // distance to the nearest chosen centroid (on a capped candidate sample
    // for speed).
    val centroids = new Array[Array[Float]](kk)
    centroids(0) = data(rnd.nextInt(data.length)).clone()
    val best = Array.fill(data.length)(Float.MaxValue)
    var c = 1
    while (c < kk) {
      var i = 0
      while (i < data.length) {
        val s = VectorOps.l2Sq(centroids(c - 1), data(i))
        if (s < best(i)) best(i) = s
        i += 1
      }
      // Sample proportional to `best`; chosen points are at exactly 0.
      var total = 0.0
      best.foreach(s => total += s.toDouble)
      if (total <= 0) {
        centroids(c) = data(rnd.nextInt(data.length)).clone()
      } else {
        var r = rnd.nextDouble() * total
        var pick = 0
        var j = 0
        var done = false
        while (j < data.length && !done) {
          r -= best(j).toDouble
          if (r <= 0) { pick = j; done = true }
          j += 1
        }
        centroids(c) = data(pick).clone()
      }
      c += 1
    }

    val assign = new Array[Int](data.length)
    var it = 0
    while (it < Iters) {
      var i = 0
      while (i < data.length) { assign(i) = VectorOps.nearest(data(i), centroids); i += 1 }
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
          // Re-seed a dead cluster at the point currently worst-served.
          var worst = 0; var worstS = Float.MinValue
          var j = 0
          while (j < data.length) {
            val s = VectorOps.l2Sq(data(j), centroids(assign(j)))
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

  /** The paper's default cell count for an IVF index over n vectors. */
  def sqrtCells(n: Long): Int = math.max(1, math.round(math.sqrt(n.toDouble)).toInt)
}
