package repro.core

import org.scalacheck.{Gen, Prop, Properties}

import repro.core.vec.{BatchScorer, Block, KMeans, Metric, TopK, VectorOps}

/** ScalaCheck property suite for the vector kernels (runs under the
  * scalacheck sbt framework alongside the ScalaTest suites).
  */
object VectorProps extends Properties("vec") {

  private val gridVal: Gen[Float] = Gen.chooseNum(-32, 32).map(_ / 8.0f)
  private def vec(d: Int): Gen[Array[Float]] = Gen.containerOfN[Array, Float](d, gridVal)

  property("l2Sq nonnegative") = Prop.forAll(vec(8), vec(8)) { (a, b) =>
    VectorOps.l2Sq(a, b) >= 0f
  }

  property("l2Sq zero iff equal on grid values") = Prop.forAll(vec(8)) { a =>
    VectorOps.l2Sq(a, a) == 0f
  }

  property("dot bilinear under scalar doubling") = Prop.forAll(vec(6), vec(6)) { (a, b) =>
    val a2 = a.map(_ * 2f)
    VectorOps.dot(a2, b) == 2f * VectorOps.dot(a, b)
  }

  // batchScores is the batch kernel, BatchScorer.scores over a d-major block.
  property("batchScores matches pairwise for both metrics") =
    Prop.forAll(Gen.listOfN(3, vec(5)), Gen.listOfN(5, vec(5)),
                Gen.oneOf(Metric.L2: Metric, Metric.IP: Metric)) { (qs, ds, m) =>
      val q = qs.toArray; val d = ds.toArray
      val b = Block(d.indices.map(_.toLong).toArray, d, 5)
      val flat = new BatchScorer().scores(q, b, m)
      q.indices.forall(i => d.indices.forall(j => flat(i * b.stride + j) == m.score(q(i), d(j))))
    }

  property("TopK == sort-take") =
    Prop.forAll(Gen.listOfN(30, Gen.zip(Gen.chooseNum(0f, 20f), Gen.chooseNum(0L, 40L))),
                Gen.chooseNum(1, 10)) { (xs, k) =>
      val h = new TopK(k)
      xs.foreach { case (s, id) => h.push(s, id) }
      TopKOrder.sorted(h) == xs.sortBy(t => (t._1, t._2)).take(k)
    }

  property("TopK.sort with a limit puts the best entries first, best-first, tags alongside") =
    Prop.forAll(Gen.listOfN(40, Gen.zip(Gen.chooseNum(0f, 8f), Gen.chooseNum(0L, 60L))),
                Gen.chooseNum(0, 45)) { (xs, limit) =>
      val scores = xs.map(_._1).toArray; val ids = xs.map(_._2).toArray
      val tags = xs.map(x => x._1 > x._2).toArray
      TopK.sort(scores, ids, tags, 0, xs.length, limit)
      val want = xs.sortBy(t => (t._1, t._2)).take(limit)
      scores.toSeq.zip(ids).take(limit) == want &&
        scores.toSeq.zip(ids).sortBy(t => (t._1, t._2)) == xs.sortBy(t => (t._1, t._2)) &&
        scores.indices.forall(i => tags(i) == scores(i) > ids(i))
    }

  // A coarser 1/8 grid than `vec`, so equal distances to two centroids are
  // common and the lowest-index tie rule is exercised.
  private val tieVal: Gen[Float] = Gen.chooseNum(0, 3).map(_ / 8.0f)

  property("batched assignment equals VectorOps.nearest per point, ties included") =
    Prop.forAll(Gen.chooseNum(1, 6)) { d =>
      val v = Gen.containerOfN[Array, Float](d, tieVal)
      Prop.forAll(Gen.listOfN(23, v), Gen.nonEmptyListOf(v)) { (ps, cs) =>
        val points = ps.toArray; val cents = cs.toArray
        KMeans.assign(points, cents).toSeq == points.map(VectorOps.nearest(_, cents)).toSeq
      }
    }

  property("nearestN is sorted by distance") = Prop.forAll(vec(4), Gen.listOfN(8, vec(4))) { (q, cs) =>
    val cents = cs.toArray
    val nn = VectorOps.nearestN(q, cents, 5)
    val scores = nn.map(i => Metric.L2.score(q, cents(i)))
    scores.sliding(2).forall { case Array(a, b) => a <= b; case _ => true }
  }
}
