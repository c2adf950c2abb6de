package repro.core

import org.apache.spark.sql.Row
import org.apache.spark.sql.types._
import scala.util.Random

import repro.SparkSpec
import repro.core.qdtree.Pred
import repro.core.qdtree.Pred._

/** Predicate semantics, including the required agreement between the
  * Catalyst-column form and the executor-side row form — the engine relies
  * on both paths classifying every tuple identically.
  */
class PredicateSpec extends SparkSpec {

  private val schema = StructType(Seq(
    StructField("id", LongType, nullable = false),
    StructField("etype", StringType, nullable = true),
    StructField("pop", DoubleType, nullable = true)))

  private def df(rows: (Long, String, java.lang.Double)*) = {
    val data = rows.map { case (i, t, p) => Row(i, t, p) }
    spark.createDataFrame(spark.sparkContext.parallelize(data.toSeq, 2), schema)
  }

  /** Row form as the engine evaluates it: the predicate's attribute value,
    * null for SQL NULL.
    */
  private def evalRow(p: Pred, r: Row): Boolean = p.evalValue(r.getAs[Any](p.attr))

  test("NumCmp evaluates all five operators") {
    val v = 5.0
    assert(NumCmp("pop", Lt, 6.0).evalValue(v))
    assert(!NumCmp("pop", Lt, 5.0).evalValue(v))
    assert(NumCmp("pop", Le, 5.0).evalValue(v))
    assert(NumCmp("pop", Gt, 4.0).evalValue(v))
    assert(!NumCmp("pop", Gt, 5.0).evalValue(v))
    assert(NumCmp("pop", Ge, 5.0).evalValue(v))
    assert(NumCmp("pop", EqOp, 5.0).evalValue(v))
    assert(!NumCmp("pop", EqOp, 5.5).evalValue(v))
  }

  test("NumCmp on a NULL attribute is false (SQL semantics)") {
    Seq(Lt, Le, Gt, Ge, EqOp).foreach(op => assert(!NumCmp("pop", op, 0.0).evalValue(null)))
  }

  test("StrEq matches exactly; NULL is false") {
    assert(StrEq("etype", "person").evalValue("person"))
    assert(!StrEq("etype", "person").evalValue("song"))
    assert(!StrEq("etype", "person").evalValue(null))
  }

  test("In membership; NULL is false") {
    val p = In("etype", Set("song", "film"))
    assert(p.evalValue("song"))
    assert(p.evalValue("film"))
    assert(!p.evalValue("person"))
    assert(!p.evalValue(null))
  }

  test("NotNull checks presence") {
    assert(NotNull("pop").evalValue(1.0))
    assert(!NotNull("pop").evalValue(null))
  }

  test("CentroidEq reads the reserved centroid attribute") {
    assert(CentroidEq(3).attr == Pred.CentroidAttr)
    assert(CentroidEq(3).evalValue(3))
    assert(!CentroidEq(3).evalValue(4))
    assert(!CentroidEq(3).evalValue(null))
  }

  test("describe is stable and distinct across predicate kinds") {
    val ps: Seq[Pred] = Seq(NumCmp("a", Lt, 1.0), NumCmp("a", Le, 1.0), NumCmp("a", Gt, 1.0),
                            NumCmp("a", Ge, 1.0), NumCmp("a", EqOp, 1.0), StrEq("a", "1.0"),
                            In("a", Set("x", "y")), NotNull("a"), CentroidEq(0))
    assert(ps.map(_.describe).distinct.size == ps.size)
  }

  test("In.describe is order-insensitive (set identity)") {
    assert(In("a", Set("x", "y")).describe == In("a", Set("y", "x")).describe)
  }

  test("Column form and row form agree on every tuple, for every predicate kind") {
    val d = df(
      (1L, "person", 0.9), (2L, "song", 0.2), (3L, null, 0.5),
      (4L, "person", null), (5L, "film", 0.7), (6L, "artist", 1.0),
      (7L, "song", Double.NaN), (8L, "film", Double.PositiveInfinity),
      (9L, "person", Double.NegativeInfinity), (10L, "artist", -0.0), (11L, "song", 0.0))
    // NaN and ±∞ constants too: Catalyst puts NaN above +∞, equal to itself.
    val special = Seq(Double.NaN, Double.PositiveInfinity, Double.NegativeInfinity, 0.0, -0.0)
    val preds: Seq[Pred] = Seq(
      StrEq("etype", "person"), In("etype", Set("song", "film")), NotNull("pop"),
      NotNull("etype"), NumCmp("pop", Ge, 0.5), NumCmp("pop", Lt, 0.5),
      NumCmp("pop", EqOp, 0.7), NumCmp("pop", Le, 0.2), NumCmp("pop", Gt, 0.9)) ++
      (for (v <- special; op <- Seq(Lt, Le, Gt, Ge, EqOp)) yield NumCmp("pop", op, v))
    for (p <- preds) {
      val viaColumn = d.filter(p.toColumn).select("id").collect().map(_.getLong(0)).toSet
      val viaEval = d.collect().filter(evalRow(p, _)).map(_.getLong(0)).toSet
      assert(viaColumn == viaEval, s"${p.describe}: column=$viaColumn eval=$viaEval")
    }
  }

  test("Column/row agreement holds on randomized data") {
    val rnd = new Random(7)
    val types = Array("person", "song", "film", null)
    val special = Array(Double.NaN, Double.PositiveInfinity, Double.NegativeInfinity, -0.0)
    val rows = (0 until 200).map { i =>
      (i.toLong, types(rnd.nextInt(types.length)),
       rnd.nextInt(8) match {
         case 0 => null
         case 1 => Double.box(special(rnd.nextInt(special.length)))
         case _ => Double.box(rnd.nextInt(10) / 10.0)
       })
    }
    val d = df(rows: _*)
    val preds: Seq[Pred] = Seq(
      StrEq("etype", "song"), In("etype", Set("person", "film")),
      NotNull("pop"), NumCmp("pop", Ge, 0.5), NumCmp("pop", Lt, 0.3),
      NumCmp("pop", Gt, 0.0), NumCmp("pop", EqOp, 0.0)) ++
      (for (v <- special.toSeq.take(3); op <- Seq(Lt, Ge, EqOp)) yield NumCmp("pop", op, v))
    val collected = d.collect()
    for (p <- preds) {
      val viaColumn = d.filter(p.toColumn).select("id").collect().map(_.getLong(0)).toSet
      val viaEval = collected.filter(evalRow(p, _)).map(_.getLong(0)).toSet
      assert(viaColumn == viaEval, p.describe)
    }
  }

  test("Pred.and builds a conjunction column; empty list is TRUE") {
    val d = df((1L, "person", 0.9), (2L, "person", 0.1), (3L, "song", 0.9))
    val both = d.filter(Pred.and(Seq(StrEq("etype", "person"), NumCmp("pop", Ge, 0.5))))
      .select("id").collect().map(_.getLong(0)).toSet
    assert(both == Set(1L))
    assert(d.filter(Pred.and(Nil)).count() == 3)
  }
}
