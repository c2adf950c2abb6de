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

  /** Requires `v` to be scorable beside vectors of dimension `d`: of that
    * dimension, with only finite components. The message names `v` by
    * `what` and the source of `d` by `ref`.
    */
  def requireScorable(v: Array[Float], d: Int, what: => String, ref: => String): Unit = {
    require(v.length == d, s"$what has dimension ${v.length}, not that of $ref, $d")
    var j = 0
    while (j < d && java.lang.Float.isFinite(v(j))) j += 1
    require(j == d, s"$what has a non-finite component, ${v(j)} at $j")
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

  /** The `i`-th retained entry in heap order, for `i < size` (unsorted);
    * [[TopK.sort]] puts entries in best-first order.
    */
  def scoreAt(i: Int): Float = scores(i)
  def idAt(i: Int): Long = ids(i)
}

object TopK {

  /** Reorders entries `from until until` of the parallel arrays `scores`
    * and `ids` (and `tags`, unless null) so that the best `limit` of them,
    * in the order a [[TopK]] keeps (ascending score, then id), come first,
    * best-first; the rest follow in no particular order. With `limit` at
    * least the range's length this sorts the whole range. A partial
    * quicksort: only the partitions that reach into the first `limit`
    * places are sorted.
    */
  def sort(scores: Array[Float], ids: Array[Long], tags: Array[Boolean],
           from: Int, until: Int, limit: Int): Unit = {
    def less(i: Int, j: Int): Boolean =
      scores(i) < scores(j) || (scores(i) == scores(j) && ids(i) < ids(j))
    def swap(i: Int, j: Int): Unit = {
      val ts = scores(i); scores(i) = scores(j); scores(j) = ts
      val ti = ids(i); ids(i) = ids(j); ids(j) = ti
      if (tags != null) { val tt = tags(i); tags(i) = tags(j); tags(j) = tt }
    }
    // Sorts [lo, hi] (inclusive) as far as place `end`: the places before
    // `end` end up final.
    def go(lo0: Int, hi0: Int, end: Int): Unit = {
      var lo = lo0; var hi = hi0
      while (hi - lo >= 12 && lo < end) {
        // Hoare partition around the median of three.
        val mid = (lo + hi) >>> 1
        if (less(mid, lo)) swap(mid, lo)
        if (less(hi, lo)) swap(hi, lo)
        if (less(hi, mid)) swap(hi, mid)
        val ps = scores(mid); val pid = ids(mid)
        var i = lo; var j = hi
        while (i <= j) {
          while (scores(i) < ps || (scores(i) == ps && ids(i) < pid)) i += 1
          while (ps < scores(j) || (ps == scores(j) && pid < ids(j))) j -= 1
          if (i <= j) { swap(i, j); i += 1; j -= 1 }
        }
        // [lo, j] precedes [i, hi]; a place between them is final.
        if (end <= j + 1) hi = j
        else { go(lo, j, j + 1); lo = i }
      }
      if (lo < end) {
        var i = lo + 1
        while (i <= hi) {
          var j = i
          while (j > lo && less(j, j - 1)) { swap(j, j - 1); j -= 1 }
          i += 1
        }
      }
    }
    go(from, until - 1, math.min(until, from + math.max(0, limit)))
  }
}
