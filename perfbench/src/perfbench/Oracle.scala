package perfbench

import repro.workload.Workload

/** The benchmark's own exact top-k: for every query, a brute-force scan of
  * the ids that satisfy its template, scored as the engine scores inner
  * product (negated dot product, lower first, ties by lower id).
  */
object Oracle {

  def topK(vecs: Array[Array[Float]], w: Workload, matches: Map[Int, java.util.BitSet],
           k: Int): Map[Long, Array[(Long, Float)]] = {
    val out = new Array[Array[(Long, Float)]](w.size)
    java.util.stream.IntStream.range(0, w.size).parallel().forEach { qi =>
      val q = w.queries(qi)
      val m = matches(q.templateId)
      val ids = new Array[Long](k)
      val scores = new Array[Float](k)
      var n = 0
      var id = m.nextSetBit(0)
      while (id >= 0) {
        val s = -dot(q.vec, vecs(id))
        // Ids arrive in ascending order, so an equal score never displaces.
        if (n < k || s < scores(n - 1)) {
          var pos = math.min(n, k - 1)
          while (pos > 0 && s < scores(pos - 1)) {
            if (pos < k) { scores(pos) = scores(pos - 1); ids(pos) = ids(pos - 1) }
            pos -= 1
          }
          scores(pos) = s; ids(pos) = id
          if (n < k) n += 1
        }
        id = m.nextSetBit(id + 1)
      }
      out(qi) = Array.tabulate(n)(i => (ids(i), scores(i)))
    }
    w.queries.indices.map(i => w.queries(i).qid -> out(i)).toMap
  }

  private def dot(a: Array[Float], b: Array[Float]): Float = {
    var s = 0f
    var i = 0
    while (i < a.length) { s += a(i) * b(i); i += 1 }
    s
  }
}
