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

/** Scalar float vector kernels. [[l2Sq]] and [[dot]] define
  * [[Metric.score]], which [[BatchScorer]] reproduces bit for bit;
  * [[nearest]] is the one-vector L2 centroid rule of
  * [[repro.core.ivf.IVF.assign]], which [[KMeans.assign]] reproduces for
  * many vectors at once, and [[nearestN]] the `m` nearest global centroids
  * of centroid routing.
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

  /** Index of the L2-nearest centroid (the lowest index on ties). */
  def nearest(q: Array[Float], centroids: Array[Array[Float]]): Int = {
    var best = 0; var bestS = Float.MaxValue; var i = 0
    while (i < centroids.length) {
      val s = l2Sq(q, centroids(i))
      if (s < bestS) { bestS = s; best = i }
      i += 1
    }
    best
  }

  /** Indices of the `n` L2-nearest centroids, closest first. */
  def nearestN(q: Array[Float], centroids: Array[Array[Float]], n: Int): Array[Int] = {
    val scored = centroids.indices.map(i => (l2Sq(q, centroids(i)), i))
    scored.sortBy(t => (t._1, t._2)).take(math.min(n, centroids.length)).map(_._2).toArray
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

  /** The `i`-th retained entry in heap order, for `i < size` (unsorted). */
  def scoreAt(i: Int): Float = scores(i)
  def idAt(i: Int): Long = ids(i)

  /** Results sorted best-first (ascending score, then id). */
  def sorted: Array[(Float, Long)] =
    (0 until n).map(i => (scores(i), ids(i))).sortBy(t => (t._1, t._2)).toArray
}
