package repro.core.vec

import jdk.incubator.vector.{FloatVector, VectorOperators, VectorSpecies}

/** `n` vectors of dimension `d` with their ids, stored d-major: dimension `t`
  * of row `j` is `x(t * stride + j)`. `stride` is `n` rounded up to the
  * kernel's lane count, so the kernel only ever reads whole lane vectors;
  * the padding rows are zero and their scores are never pushed.
  * `ids` and `x` may be longer than the block (reused scratch buffers);
  * `ids` is empty where only scores are read (k-means).
  */
final class Block(val ids: Array[Long], val n: Int, val d: Int, val x: Array[Float]) extends Serializable {
  val stride: Int = Block.stride(n)
}

object Block {
  def stride(n: Int): Int = {
    val l = BatchScorer.Lanes
    (n + l - 1) / l * l
  }

  /** A block holding `rows` (all of dimension `d`) with their ids. */
  def apply(ids: Array[Long], rows: Array[Array[Float]], d: Int): Block = {
    val n = rows.length
    val s = stride(n)
    val x = new Array[Float](d * s)
    var j = 0
    while (j < n) {
      val r = rows(j)
      var t = 0
      while (t < d) { x(t * s + j) = r(t); t += 1 }
      j += 1
    }
    new Block(ids, n, d, x)
  }
}

/** The one score kernel (Algorithm 3's "single matrix multiplication"), used
  * for every score of a pass (batched and per-query scans and cell ranking)
  * and every centroid score of an index build ([[KMeans]]).
  * One instance per thread; scratch buffers grow on demand and are reused,
  * so the hot loop allocates nothing but the small [[Block]] headers of
  * gathers.
  *
  * `scores` returns a flat buffer, valid until the next call, with
  * `flat(i * block.stride + j) == metric.score(queries(i), row j)` bit for
  * bit: each lane sums one row in dimension order with a separate multiply
  * and add, exactly as [[VectorOps.dot]] and [[VectorOps.l2Sq]] do.
  */
final class BatchScorer {
  private val lanes = BatchScorer.Lanes
  private var out = new Array[Float](0)
  private var gx = new Array[Float](0)
  private var gids = new Array[Long](0)

  def scores(queries: Array[Array[Float]], block: Block, metric: Metric): Array[Float] = {
    if (!reserve(queries.length * block.stride)) return Array.emptyFloatArray
    Kernel.scores(queries, block, metric == Metric.L2, out)
    out
  }

  /** [[scores]] of the queries `qs(from until until)`, query `q` being the
    * `d` floats of `vecs` from `q * d` on: row `i - from` of the buffer
    * scores query `qs(i)`.
    */
  def scores(vecs: Array[Float], d: Int, qs: Array[Int], from: Int, until: Int,
             block: Block, metric: Metric): Array[Float] = {
    if (!reserve((until - from) * block.stride)) return Array.emptyFloatArray
    Kernel.scores(vecs, d, qs, from, until, block, metric == Metric.L2, out)
    out
  }

  /** Grows the score buffer to `size`; false when there is nothing to score. */
  private def reserve(size: Int): Boolean = {
    if (out.length < size) out = new Array[Float](math.max(size, out.length * 2))
    size > 0
  }

  /** Rows `rows(0 until count)` of `block` as a block over this scorer's
    * scratch buffers, valid until the next gather.
    */
  def gather(block: Block, rows: Array[Int], count: Int): Block = {
    val d = block.d
    val s = Block.stride(count)
    if (gx.length < d * s) gx = new Array[Float](math.max(d * s, gx.length * 2))
    if (gids.length < count) gids = new Array[Long](math.max(count, gids.length * 2))
    var t = 0
    while (t < d) {
      val src = t * block.stride; val dst = t * s
      var c = 0
      while (c < count) { gx(dst + c) = block.x(src + rows(c)); c += 1 }
      java.util.Arrays.fill(gx, dst + count, dst + s, 0f)
      t += 1
    }
    var c = 0
    while (c < count) { gids(c) = block.ids(rows(c)); c += 1 }
    new Block(gids, count, d, gx)
  }

  /** Push `(flat(off + j), block.ids(j))` for every row `j` of `block` into
    * `h`. A full heap rejects every score above its threshold, so a lane-wide
    * run of rows whose scores all exceed it is skipped without a push.
    */
  def push(h: TopK, flat: Array[Float], off: Int, block: Block): Unit = {
    var j = 0
    while (j < block.n) {
      val end = math.min(j + lanes, block.n)
      if (h.size < h.k || Kernel.anyAtMost(flat, off + j, h.threshold)) {
        while (j < end) { h.push(flat(off + j), block.ids(j)); j += 1 }
      } else j = end
    }
  }
}

object BatchScorer {
  private val Module = "jdk.incubator.vector"

  /** Lanes per kernel vector. The first use fails with a message naming the
    * JVM flag when the vector module is not loaded; without this check the
    * failure is a bare `NoClassDefFoundError` from deep inside a task.
    */
  lazy val Lanes: Int = {
    if (!ModuleLayer.boot().findModule(Module).isPresent)
      throw new UnsupportedOperationException(
        s"the score kernel needs the $Module module: start the JVM with --add-modules=$Module")
    Kernel.Lanes
  }
}

/** Vector API code, kept apart from [[BatchScorer]] so that class loads (and
  * can report a missing module) without resolving vector types.
  */
private object Kernel {
  // Keep the species in this object's val: held in a class field instead,
  // C2 did not intrinsify the kernel and a pass ran 40% slower.
  private val S: VectorSpecies[java.lang.Float] = FloatVector.SPECIES_PREFERRED
  val Lanes: Int = S.length()

  def scores(qs: Array[Array[Float]], b: Block, l2: Boolean, out: Array[Float]): Unit = {
    val s = b.stride
    var i = 0
    while (i + 4 <= qs.length) {
      four(qs(i), 0, qs(i + 1), 0, qs(i + 2), 0, qs(i + 3), 0, b.x, s, b.d, l2, out, i * s)
      i += 4
    }
    while (i < qs.length) { one(qs(i), 0, b.x, s, b.d, l2, out, i * s); i += 1 }
  }

  def scores(vecs: Array[Float], d: Int, qs: Array[Int], from: Int, until: Int,
             b: Block, l2: Boolean, out: Array[Float]): Unit = {
    val s = b.stride
    var i = from
    while (i + 4 <= until) {
      four(vecs, qs(i) * d, vecs, qs(i + 1) * d, vecs, qs(i + 2) * d, vecs, qs(i + 3) * d,
           b.x, s, b.d, l2, out, (i - from) * s)
      i += 4
    }
    while (i < until) { one(vecs, qs(i) * d, b.x, s, b.d, l2, out, (i - from) * s); i += 1 }
  }

  /** Scores of four queries (query `i` is `qi` from offset `oi`), one
    * lane-wide run of rows at a time: each row vector is loaded once per
    * dimension and used by all four accumulators.
    */
  private def four(q0: Array[Float], o0: Int, q1: Array[Float], o1: Int,
                   q2: Array[Float], o2: Int, q3: Array[Float], o3: Int,
                   x: Array[Float], s: Int, d: Int, l2: Boolean, out: Array[Float], o: Int): Unit = {
    var j = 0
    while (j < s) {
      var a0 = FloatVector.zero(S); var a1 = a0; var a2 = a0; var a3 = a0
      var t = 0
      while (t < d) {
        val v = FloatVector.fromArray(S, x, t * s + j)
        if (l2) {
          val e0 = v.sub(q0(o0 + t)); val e1 = v.sub(q1(o1 + t))
          val e2 = v.sub(q2(o2 + t)); val e3 = v.sub(q3(o3 + t))
          a0 = a0.add(e0.mul(e0)); a1 = a1.add(e1.mul(e1)); a2 = a2.add(e2.mul(e2)); a3 = a3.add(e3.mul(e3))
        } else {
          a0 = a0.add(v.mul(q0(o0 + t))); a1 = a1.add(v.mul(q1(o1 + t)))
          a2 = a2.add(v.mul(q2(o2 + t))); a3 = a3.add(v.mul(q3(o3 + t)))
        }
        t += 1
      }
      if (!l2) { a0 = a0.neg(); a1 = a1.neg(); a2 = a2.neg(); a3 = a3.neg() }
      a0.intoArray(out, o + j); a1.intoArray(out, o + s + j)
      a2.intoArray(out, o + 2 * s + j); a3.intoArray(out, o + 3 * s + j)
      j += Lanes
    }
  }

  private def one(q: Array[Float], qo: Int, x: Array[Float], s: Int, d: Int, l2: Boolean,
                  out: Array[Float], o: Int): Unit = {
    var j = 0
    while (j < s) {
      var a = FloatVector.zero(S)
      var t = 0
      while (t < d) {
        val v = FloatVector.fromArray(S, x, t * s + j)
        if (l2) { val e = v.sub(q(qo + t)); a = a.add(e.mul(e)) }
        else a = a.add(v.mul(q(qo + t)))
        t += 1
      }
      (if (l2) a else a.neg()).intoArray(out, o + j)
      j += Lanes
    }
  }

  /** Whether any of the lane-wide run `flat(off until off + Lanes)` is at most `bound`. */
  def anyAtMost(flat: Array[Float], off: Int, bound: Float): Boolean =
    FloatVector.fromArray(S, flat, off).compare(VectorOperators.LE, bound).anyTrue()
}
