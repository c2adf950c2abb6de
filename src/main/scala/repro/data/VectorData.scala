package repro.data

import scala.util.Random

/** Deterministic synthetic vector data.
  *
  * Embedding spaces produced by real models are clustered (songs near songs,
  * cities near cities), and IVF/qd-tree behaviour depends on that structure —
  * so all generators draw from Gaussian mixtures, never isotropic noise.
  * Every row is generated from a splitmix64 hash of (seed, id) so the data is
  * identical regardless of Spark partitioning.
  */
object VectorData {

  /** splitmix64 — decorrelates per-row RNG seeds. */
  def mix(seed: Long, id: Long): Long = {
    var z = seed + id * 0x9E3779B97F4A7C15L
    z = (z ^ (z >>> 30)) * 0xBF58476D1CE4E5B9L
    z = (z ^ (z >>> 27)) * 0x94D049BB133111EBL
    z ^ (z >>> 31)
  }

  /** Mixture centers: `nClusters` points with coordinates ~ N(0, 1). */
  def makeCenters(nClusters: Int, d: Int, seed: Long): Array[Array[Float]] = {
    val rnd = new Random(seed)
    Array.fill(nClusters)(Array.fill(d)(rnd.nextGaussian().toFloat))
  }

  /** Sample one vector near `center` with per-dimension noise `spread`. */
  def sampleNear(center: Array[Float], spread: Double, rnd: Random): Array[Float] = {
    val v = new Array[Float](center.length)
    var i = 0
    while (i < v.length) { v(i) = center(i) + (rnd.nextGaussian() * spread).toFloat; i += 1 }
    v
  }
}
