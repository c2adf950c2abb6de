package repro.core

import repro.SparkSpec
import repro.core.engine._
import repro.harness.{Harness, Strategy}
import repro.workload.Workload

/** nprobe / expansion tuning against exhaustive ground truth. Reuses the
  * shared [[EngineFixtures]] database and indexes.
  */
class TuningSpec extends SparkSpec {
  import EngineFixtures._

  private lazy val sample: Workload = history(this).sampledPerTemplate(6)
  private lazy val gt = truth(this, sample)

  test("tuneNprobe reaches the target recall on every reachable template") {
    val res = Tuning.tuneNprobe(flat(this), sample, gt, target = 0.8, k = sample.k)
    val run = BatchEngine.run(flat(this), sample,
      EngineOptions(k = sample.k, nprobe = res.nprobe))
    val rec = Recall.perTemplate(run.results, gt, sample, sample.k)
    for ((tid, r) <- rec if res.achievedRecall.getOrElse(tid, 0.0) >= 0.8)
      assert(r >= 0.75, s"template $tid regressed to $r after tuning")
  }

  test("tuneNprobe assigns an nprobe to every template") {
    val res = Tuning.tuneNprobe(flat(this), sample, gt, target = 0.8, k = sample.k)
    assert(res.nprobe.keySet == sample.templates.map(_.id).toSet)
    res.nprobe.values.foreach(np => assert(np >= 1))
  }

  test("a looser target never needs a larger nprobe than a tighter one") {
    val loose = Tuning.tuneNprobe(flat(this), sample, gt, target = 0.5, k = sample.k)
    val tight = Tuning.tuneNprobe(flat(this), sample, gt, target = 0.9, k = sample.k)
    for (tid <- sample.templates.map(_.id))
      assert(loose.nprobe(tid) <= tight.nprobe(tid),
             s"template $tid: loose ${loose.nprobe(tid)} > tight ${tight.nprobe(tid)}")
  }

  test("trivial target 0.0 is satisfied by the smallest grid step") {
    val res = Tuning.tuneNprobe(flat(this), sample, gt, target = 0.0, k = sample.k)
    assert(res.nprobe.values.forall(_ == 1))
  }

  test("tunePostFilter escalates expansion together with nprobe") {
    val res = Tuning.tuneNprobe(flat(this), sample, gt, target = 0.8, k = sample.k,
                                base = EngineOptions(postFilter = true))
    assert(res.expansion >= 2)
    assert(res.nprobe.keySet == sample.templates.map(_.id).toSet)
    // Every template sits on a PostFilter step; one expansion serves them all.
    val expansionAt = Tuning.PostFilterSteps.toMap
    assert(res.nprobe.values.forall(expansionAt.contains))
    assert(res.expansion == res.nprobe.values.map(expansionAt).max)
  }

  test("the harness tunes PostFilter to the same nprobe and expansion with or without vector batching") {
    val opts = Harness.tuned(Strategy.PostFilter, flat(this), sample, gt)
    val batched = Tuning.tuneNprobe(flat(this), sample, gt, Harness.TargetRecall, Harness.K,
                                    base = EngineOptions(postFilter = true))
    assert(!opts.vectorBatching && opts.postFilter)
    assert(opts.nprobe == batched.nprobe)
    assert(opts.postFilterExpansion == batched.expansion)
  }

  test("TuneResult.allReached reflects achieved recalls") {
    val good = Tuning.TuneResult(Map(1 -> 1), 2, Map(1 -> 0.95, 2 -> 0.85))
    val bad = Tuning.TuneResult(Map(1 -> 1), 2, Map(1 -> 0.95, 2 -> 0.55))
    assert(good.allReached(0.8))
    assert(!bad.allReached(0.8))
  }
}
