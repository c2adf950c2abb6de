package repro.core.vec

/** Distance metric for vector similarity search.
  *
  * Internally every metric is mapped to a *score where lower is better* so
  * that top-k selection, heaps and recall computation are metric-agnostic:
  *   - [[Metric.L2]]  → squared Euclidean distance (monotone in L2)
  *   - [[Metric.IP]]  → negated inner product (maximum inner product search)
  */
sealed trait Metric extends Serializable {
  /** Lower-is-better score between a query vector and a database vector. */
  def score(q: Array[Float], v: Array[Float]): Float
  def name: String
}

object Metric {
  case object L2 extends Metric {
    def score(q: Array[Float], v: Array[Float]): Float = VectorOps.l2Sq(q, v)
    val name = "L2"
  }
  case object IP extends Metric {
    def score(q: Array[Float], v: Array[Float]): Float = -VectorOps.dot(q, v)
    val name = "IP"
  }
  def fromName(s: String): Metric = s match {
    case "L2" => L2
    case "IP" => IP
    case other => throw new IllegalArgumentException(s"unknown metric: $other")
  }
}

/** Low-level float vector kernels shared by k-means, IVF scans and the batch
  * engine. All loops are allocation-free on the hot path.
  */
object VectorOps {

  /** Squared L2 distance. */
  def l2Sq(a: Array[Float], b: Array[Float]): Float = {
    var s = 0.0f; var i = 0
    while (i < a.length) { val d = a(i) - b(i); s += d * d; i += 1 }
    s
  }

  /** Inner product. */
  def dot(a: Array[Float], b: Array[Float]): Float = {
    var s = 0.0f; var i = 0
    while (i < a.length) { s += a(i) * b(i); i += 1 }
    s
  }

  /** BLAS used for the batched kernel (Spark's netlib: VectorBLAS when the
    * jdk.incubator.vector module is on, Java11BLAS otherwise).
    */
  private[vec] lazy val blas: Option[dev.ludovic.netlib.blas.BLAS] =
    try Some(dev.ludovic.netlib.blas.BLAS.getInstance) catch { case _: Throwable => None }

  /** Index of the nearest (lowest-score) centroid. */
  def nearest(q: Array[Float], centroids: Array[Array[Float]], metric: Metric): Int = {
    var best = 0; var bestS = Float.MaxValue; var i = 0
    while (i < centroids.length) {
      val s = metric.score(q, centroids(i))
      if (s < bestS) { bestS = s; best = i }
      i += 1
    }
    best
  }

  /** Indices of the `n` nearest centroids, closest first. */
  def nearestN(q: Array[Float], centroids: Array[Array[Float]], n: Int, metric: Metric): Array[Int] = {
    val scored = centroids.indices.map(i => (metric.score(q, centroids(i)), i))
    scored.sortBy(t => (t._1, t._2)).take(math.min(n, centroids.length)).map(_._2).toArray
  }
}

/** Reusable batched score kernel (the "single matrix multiplication" of
  * Algorithm 3). One instance per executor task; scratch buffers grow on
  * demand and are reused across (cell, query-group) evaluations, so the hot
  * loop allocates nothing.
  *
  * `scores` returns a flat row-major m×n buffer, valid until the next call:
  * `flat(i * n + j) = metric.score(queries(i), data(j))`. Computed as one
  * SGEMM `G = Q·Xᵀ` (IP scores are `-G`; L2 expands `‖q‖² - 2q·x + ‖x‖²`
  * with per-side norms), with a scalar fallback for tiny groups.
  */
final class BatchScorer {
  private var qf: Array[Float] = new Array[Float](0)
  private var xf: Array[Float] = new Array[Float](0)
  private var c: Array[Float] = new Array[Float](0)
  private var xn: Array[Float] = new Array[Float](0)

  private def ensure(buf: Array[Float], size: Int): Array[Float] =
    if (buf.length >= size) buf else new Array[Float](math.max(size, buf.length * 2))

  def scores(queries: Array[Array[Float]], data: Array[Array[Float]], metric: Metric): Array[Float] = {
    val m = queries.length; val n = data.length
    if (m == 0 || n == 0) return Array.empty
    val d = queries(0).length
    c = ensure(c, m * n)

    val gemm = VectorOps.blas.orNull
    if (gemm != null && m.toLong * n * d >= 4096) {
      qf = ensure(qf, m * d)
      var i = 0
      while (i < m) { System.arraycopy(queries(i), 0, qf, i * d, d); i += 1 }
      xf = ensure(xf, n * d)
      var j = 0
      while (j < n) { System.arraycopy(data(j), 0, xf, j * d, d); j += 1 }
      // Column-major view: C(n×m), C[j + i*n] = q_i·x_j.
      gemm.sgemm("T", "N", n, m, d, 1.0f, xf, d, qf, d, 0.0f, c, n)
      metric match {
        case Metric.IP =>
          var t = 0
          val end = m * n
          while (t < end) { c(t) = -c(t); t += 1 }
        case Metric.L2 =>
          xn = ensure(xn, n)
          var jj = 0
          while (jj < n) { xn(jj) = VectorOps.dot(data(jj), data(jj)); jj += 1 }
          var ii = 0
          while (ii < m) {
            val q = queries(ii); val qn = VectorOps.dot(q, q)
            val base = ii * n
            var j2 = 0
            while (j2 < n) { c(base + j2) = qn - 2f * c(base + j2) + xn(j2); j2 += 1 }
            ii += 1
          }
      }
      return c
    }

    // Scalar fallback: shared norms, per-pair dot products.
    metric match {
      case Metric.IP =>
        var i = 0
        while (i < m) {
          val q = queries(i); val base = i * n
          var j = 0
          while (j < n) { c(base + j) = -VectorOps.dot(q, data(j)); j += 1 }
          i += 1
        }
      case Metric.L2 =>
        xn = ensure(xn, n)
        var j = 0
        while (j < n) { xn(j) = VectorOps.dot(data(j), data(j)); j += 1 }
        var i = 0
        while (i < m) {
          val q = queries(i); val qn = VectorOps.dot(q, q)
          val base = i * n
          var jj = 0
          while (jj < n) { c(base + jj) = qn - 2f * VectorOps.dot(q, data(jj)) + xn(jj); jj += 1 }
          i += 1
        }
    }
    c
  }
}

/** Bounded max-heap keeping the k lowest-score `(score, id)` pairs seen.
  *
  * Ties on score are broken towards lower ids so results are deterministic
  * across partitionings and match the DuckDB oracle's `ORDER BY score, id`.
  */
final class TopK(val k: Int) extends Serializable {
  private val scores = new Array[Float](k)
  private val ids    = new Array[Long](k)
  private var n      = 0

  def size: Int = n

  /** Current worst retained score, or +inf while under capacity. */
  def threshold: Float = if (n < k) Float.MaxValue else scores(0)

  private def less(s1: Float, id1: Long, s2: Float, id2: Long): Boolean =
    s1 < s2 || (s1 == s2 && id1 < id2)

  def push(score: Float, id: Long): Unit = {
    if (n < k) {
      scores(n) = score; ids(n) = id; n += 1
      siftUp(n - 1)
    } else if (less(score, id, scores(0), ids(0))) {
      scores(0) = score; ids(0) = id
      siftDown(0)
    }
  }

  private def siftUp(start: Int): Unit = {
    var i = start
    while (i > 0) {
      val p = (i - 1) / 2
      if (less(scores(p), ids(p), scores(i), ids(i))) { swap(i, p); i = p } else return
    }
  }

  private def siftDown(start: Int): Unit = {
    var i = start
    while (true) {
      val l = 2 * i + 1; val r = 2 * i + 2
      var big = i
      if (l < n && less(scores(big), ids(big), scores(l), ids(l))) big = l
      if (r < n && less(scores(big), ids(big), scores(r), ids(r))) big = r
      if (big == i) return
      swap(i, big); i = big
    }
  }

  private def swap(i: Int, j: Int): Unit = {
    val ts = scores(i); scores(i) = scores(j); scores(j) = ts
    val ti = ids(i); ids(i) = ids(j); ids(j) = ti
  }

  /** Results sorted best-first (ascending score, then id). */
  def sorted: Array[(Float, Long)] =
    (0 until n).map(i => (scores(i), ids(i))).sortBy(t => (t._1, t._2)).toArray
}
