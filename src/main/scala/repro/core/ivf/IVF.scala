package repro.core.ivf

import repro.core.vec.{KMeans, Metric, VectorOps}

/** Inverted-file (IVF) cell training and assignment.
  *
  * An IVF index over a set of vectors is, in this reproduction, (i) an array
  * of cell centroids held in driver metadata and (ii) a `__cluster` column on
  * the data DataFrame assigning each row to its nearest centroid — the
  * posting lists are the groups of rows sharing `(__part, __cluster)`.
  *
  * As in FAISS, the coarse quantizer always uses L2 for training, assignment
  * and probing — even for inner-product workloads, where only candidate
  * *scoring* uses IP. This keeps cell geometry sane (max-IP assignment
  * collapses onto large-norm centroids).
  */
object IVF {

  /** Metric of every centroid operation: [[KMeans]] and [[VectorOps.nearest]]
    * are L2 by construction, and the engine ranks cells for probing with it.
    */
  val AssignMetric: Metric = Metric.L2

  /** Train √n cells (the paper's default) for one partition's vectors. */
  def train(vectors: Array[Array[Float]], seed: Long): Array[Array[Float]] =
    // Train on the full vector set (no subsampling): single-index training
    // then scales as O(n·√n) versus O(n·√(n/p)) for a p-way partitioned
    // index — the asymmetry behind the paper's Table 4.
    KMeans.train(vectors, KMeans.sqrtCells(vectors.length.toLong), seed = seed, sampleCap = Int.MaxValue)

  /** Cell assignment for a single vector: the rule the index builder's
    * batched [[KMeans.assign]] reproduces bit for bit for every row, so a
    * row's `__cluster` is always `assign(row.vec, leaf centroids)`.
    */
  def assign(vec: Array[Float], centroids: Array[Array[Float]]): Int =
    VectorOps.nearest(vec, centroids)
}
