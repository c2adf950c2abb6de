package repro.core

import org.scalatest.funsuite.AnyFunSuite
import scala.util.Random

import repro.core.ivf.IVF
import repro.core.vec.{KMeans, Metric, VectorOps}

class IVFSpec extends AnyFunSuite {

  private def blob(center: Array[Float], n: Int, spread: Float, rnd: Random): Array[Array[Float]] =
    Array.fill(n)(center.map(c => c + (rnd.nextGaussian() * spread).toFloat))

  /** A query's probe cells: the `nprobe` nearest centroids under the IVF's
    * assignment metric, closest first.
    */
  private def probeCells(q: Array[Float], centroids: Array[Array[Float]], nprobe: Int): Array[Int] =
    VectorOps.nearestN(q, centroids, nprobe)

  test("train defaults to sqrt(n) cells") {
    val rnd = new Random(1)
    val data = blob(Array(0f, 0f), 400, 2f, rnd)
    val cents = IVF.train(data, seed = 1)
    assert(cents.length == 20)
  }

  test("cellsOverride is honoured") {
    val rnd = new Random(2)
    val data = blob(Array(0f), 100, 1f, rnd)
    // IVF.train picks √n cells; a requested count goes straight to k-means.
    assert(KMeans.train(data, 7, seed = 1, sampleCap = Int.MaxValue).length == 7)
  }

  test("assign picks the L2-nearest centroid") {
    val cents = Array(Array(0f, 0f), Array(10f, 0f))
    assert(IVF.assign(Array(1f, 0f), cents) == 0)
    assert(IVF.assign(Array(9f, 0f), cents) == 1)
  }

  test("probeCells returns cells nearest-first and respects nprobe") {
    val cents = Array(Array(0f), Array(4f), Array(8f), Array(12f))
    assert(probeCells(Array(7f), cents, 2).toSeq == Seq(2, 1))
    assert(probeCells(Array(0f), cents, 100).length == 4)
  }

  test("probing all cells covers every assigned vector's cell") {
    val rnd = new Random(3)
    val data = blob(Array(0f, 0f), 200, 3f, rnd)
    val cents = IVF.train(data, seed = 9)
    val assignments = data.map(IVF.assign(_, cents)).toSet
    val probed = probeCells(Array(0f, 0f), cents, cents.length).toSet
    assert(assignments.subsetOf(probed))
  }

  test("a vector's own cell is its first probe (assignment/probe agreement)") {
    val rnd = new Random(4)
    val data = blob(Array(1f, 1f), 300, 2f, rnd)
    val cents = IVF.train(data, seed = 5)
    for (v <- data.take(50))
      assert(probeCells(v, cents, 1).head == IVF.assign(v, cents))
  }

  test("assignment metric is always L2 even for IP workloads") {
    // A huge-norm centroid would swallow every vector under max-IP
    // assignment; with L2 assignment the small-norm vectors stay local.
    val cents = Array(Array(100f, 100f), Array(0.5f, 0.5f))
    assert(IVF.AssignMetric == Metric.L2)
    assert(IVF.assign(Array(0.4f, 0.4f), cents) == 1)
    // (under IP it would have been 0)
    assert(VectorOps.dot(Array(0.4f, 0.4f), cents(0)) > VectorOps.dot(Array(0.4f, 0.4f), cents(1)))
  }
}
