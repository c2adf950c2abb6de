package repro.core.engine

import scala.collection.mutable

import repro.workload.Workload

/** Per-template parameter tuning (§6.1: "nprobe … is tuned for each query
  * template to reach the target recall").
  *
  * Tuning runs the engine over a per-template query sample at escalating
  * nprobe (and, for PostFilter, candidate-expansion) settings, fixing each
  * template at the first setting that reaches the target. Templates that
  * never reach it keep the largest setting. The recall each template
  * achieved on the sample at its last setting comes back in
  * [[TuneResult.achievedRecall]], to tell a tuned template from one that
  * only ran out of settings ([[TuneResult.allReached]]). Benches do not
  * read it: `Harness.measure` marks "target not reached" (as the paper does
  * for PostFilter on LP) from the recall of the measured pass itself.
  */
object Tuning {

  final case class TuneResult(nprobe: Map[Int, Int],
                              expansion: Int,
                              achievedRecall: Map[Int, Double]) {
    def allReached(target: Double): Boolean = achievedRecall.values.forall(_ >= target - 1e-9)
  }

  val DefaultGrid: Seq[Int] = Seq(1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024)

  /** PostFilter's (nprobe, expansion) escalation. */
  val PostFilterSteps: Seq[(Int, Int)] =
    Seq((2, 2), (4, 4), (8, 8), (16, 16), (32, 32), (64, 64), (128, 64), (256, 64))

  /** Tune nprobe per template for the strategy `base` describes. `truth`
    * must be exhaustive results for (at least) `sample`'s queries.
    *
    * A pushdown strategy escalates nprobe over [[DefaultGrid]] at `base`'s
    * expansion. PostFilter (`base.postFilter`) escalates nprobe and
    * expansion together over [[PostFilterSteps]], since low-selectivity
    * filters need both wider probing and more unfiltered candidates to
    * survive post-filtering; one expansion applies engine-wide, so the
    * result carries the largest any template needed.
    */
  def tuneNprobe(index: PartitionedIndex, sample: Workload,
                 truth: Map[Long, Array[(Long, Float)]],
                 target: Double = 0.8, k: Int = 10,
                 base: EngineOptions = EngineOptions()): TuneResult = {
    val steps =
      if (base.postFilter) PostFilterSteps else DefaultGrid.map(np => (np, base.postFilterExpansion))
    // Run the sample at each step in turn, for the templates still below
    // target, and fix each template at the first step that reaches it;
    // templates that never do get the last step.
    val assigned = mutable.HashMap.empty[Int, (Int, Int)]
    val achieved = mutable.HashMap.empty[Int, Double]
    var remaining: Set[Int] = sample.templates.map(_.id).toSet

    for ((np, exp) <- steps if remaining.nonEmpty) {
      val sub = sample.restrictedTo(remaining)
      val run = BatchEngine.run(index, sub,
        base.copy(k = k, nprobe = remaining.map(_ -> np).toMap, defaultNprobe = np,
                  postFilterExpansion = exp))
      val qids = sub.queries.map(_.qid).toSet
      val rec = Recall.perTemplate(run.results, truth.filter(t => qids(t._1)), sub, k)
      for ((tid, r) <- rec) {
        achieved(tid) = r
        if (r >= target - 1e-9 && remaining.contains(tid)) {
          assigned(tid) = (np, exp)
          remaining -= tid
        }
      }
    }
    remaining.foreach(tid => assigned(tid) = steps.last)
    TuneResult(assigned.map { case (tid, (np, _)) => tid -> np }.toMap,
               assigned.values.map(_._2).maxOption.getOrElse(steps.last._2), achieved.toMap)
  }
}
