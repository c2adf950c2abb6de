package repro.core.vec

import java.util.stream.IntStream

import scala.util.Random

/** Seeded Lloyd's k-means under squared L2 over float vectors, used for
  *   (i) the global centroid attribute `t.c` of §4.1.1, and
  *   (ii) per-partition IVF cell training (√n cells, §4.1.3).
  *
  * Both are coarse quantizers, which (as in FAISS) are trained and probed
  * under L2 whatever metric scores the candidates ([[repro.core.ivf.IVF]]),
  * so this is the only metric k-means knows.
  *
  * Runs on the driver: at reproduction scale (≤200k × d≤48) that is far
  * cheaper than a distributed implementation and keeps results deterministic
  * in `seed`. Every centroid score (seeding, Lloyd assignment and the index
  * builder's [[assign]] of the full dataset) goes through the
  * [[BatchScorer]] kernel, in parallel over chunks of points on the current
  * fork-join pool. The steps whose result depends on summation order (the
  * centroid means, the seeding draw, the dead-cluster re-seed) stay
  * sequential in point order, so the centroids do not depend on the number
  * of threads.
  */
object KMeans {

  /** Lloyd iterations after seeding. */
  val Iters = 10

  /** Points per parallel task of seeding and assignment. */
  private val Chunk = 4096

  /** Points per kernel call in assignment: their scores against every
    * centroid stay in the scorer's buffer while the argmin reads them.
    */
  private val Batch = 64

  /** Runs `body(c, scorer)` for every chunk `c` of `n` points (points
    * `[c * Chunk, (c + 1) * Chunk)`), in parallel, each with its own scorer.
    */
  private def inChunks(n: Int)(body: (Int, BatchScorer) => Unit): Unit =
    IntStream.range(0, (n + Chunk - 1) / Chunk).parallel().forEach(c => body(c, new BatchScorer))

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
    // distance to the nearest chosen centroid. The newest centroid is scored
    // against the data, one d-major block per chunk.
    val centroids = new Array[Array[Float]](kk)
    centroids(0) = data(rnd.nextInt(data.length)).clone()
    val best = Array.fill(data.length)(Float.MaxValue)
    val blocks = Array.tabulate((data.length + Chunk - 1) / Chunk) { c =>
      Block(Array.emptyLongArray, data.slice(c * Chunk, (c + 1) * Chunk), d)
    }
    var c = 1
    while (c < kk) {
      val newest = Array(centroids(c - 1))
      inChunks(data.length) { (ch, scorer) =>
        val b = blocks(ch); val off = ch * Chunk
        val flat = scorer.scores(newest, b, Metric.L2)
        var j = 0
        while (j < b.n) { if (flat(j) < best(off + j)) best(off + j) = flat(j); j += 1 }
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

    var it = 0
    while (it < Iters) {
      val assigned = assign(data, centroids)
      val sums = Array.ofDim[Double](kk, d)
      val counts = new Array[Int](kk)
      var i = 0
      while (i < data.length) {
        val a = assigned(i); val v = data(i)
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
            val s = VectorOps.l2Sq(data(j), centroids(assigned(j)))
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

  /** Index of each point's L2-nearest centroid, the lowest index on ties:
    * `assign(points, centroids)(i) == VectorOps.nearest(points(i), centroids)`.
    * The kernel scores a batch of points against a d-major block of the
    * centroids; its score (c−p)² equals [[VectorOps.l2Sq]]'s (p−c)² bit for
    * bit, since negation is exact.
    */
  def assign(points: Array[Array[Float]], centroids: Array[Array[Float]]): Array[Int] = {
    require(centroids.nonEmpty, "cannot assign points to no centroids")
    val cells = Block(Array.emptyLongArray, centroids, centroids(0).length)
    val out = new Array[Int](points.length)
    inChunks(points.length) { (ch, scorer) =>
      var lo = ch * Chunk
      val end = math.min(points.length, lo + Chunk)
      while (lo < end) {
        val hi = math.min(end, lo + Batch)
        val flat = scorer.scores(points.slice(lo, hi), cells, Metric.L2)
        var i = lo
        while (i < hi) {
          val o = (i - lo) * cells.stride
          var best = 0; var bestS = Float.MaxValue; var j = 0
          while (j < cells.n) {
            val s = flat(o + j)
            if (s < bestS) { bestS = s; best = j }
            j += 1
          }
          out(i) = best
          i += 1
        }
        lo = hi
      }
    }
    out
  }

  /** The paper's default cell count for an IVF index over n vectors. */
  def sqrtCells(n: Long): Int = math.max(1, math.round(math.sqrt(n.toDouble)).toInt)
}
