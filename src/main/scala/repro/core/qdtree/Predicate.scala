package repro.core.qdtree

import org.apache.spark.sql.Column
import org.apache.spark.sql.functions._

/** Unary Boolean predicate over a tuple's relational attributes (Definition 2)
  * or over the derived centroid attribute `t.c` (§4.1.1).
  *
  * Each predicate can be evaluated two ways, and both must agree:
  *   - [[Pred.toColumn]] — as a Catalyst [[Column]], for the tuple
  *     signatures of the index build's collect, Range buckets and filter
  *     pushdown;
  *   - [[Pred.evalValue]] — on one attribute value inside `mapPartitions`,
  *     for per-cell filter bitmaps during batch search.
  *
  * For numbers they agree by construction: [[Pred.compare]] is Catalyst's
  * order of doubles, and it is the only Scala comparison of attribute values
  * (range routing uses it too). NaN equals NaN and sorts above +∞; −0.0
  * equals 0.0.
  *
  * Attribute values are `Double` (numeric), `String` (categorical) or `null`
  * (SQL NULL; every comparison on NULL is false, as in SQL three-valued logic
  * collapsed to a filter).
  */
sealed trait Pred extends Serializable {
  def attr: String
  /** Value-level semantics: `v` is the attribute's value or null (SQL NULL). */
  def evalValue(v: Any): Boolean
  def toColumn: Column
  /** Display form, for logs and reports only: distinct predicates can
    * display alike (`In(a, Set("x,y"))` and `In(a, Set("x", "y"))`), so
    * cut predicates are identified by value (case-class equality).
    */
  def describe: String
}

object Pred {
  /** Reserved column name carrying the global-centroid attribute `t.c`. */
  val CentroidAttr = "__centroid"

  /** A comparison operator: `holds(c)` says whether `x ⊘ y` is true when
    * [[compare]]`(x, y)` is `c`.
    */
  sealed trait CmpOp extends Serializable { def sym: String; def holds(c: Int): Boolean }
  case object Lt extends CmpOp { val sym = "<"; def holds(c: Int): Boolean = c < 0 }
  case object Le extends CmpOp { val sym = "<="; def holds(c: Int): Boolean = c <= 0 }
  case object Gt extends CmpOp { val sym = ">"; def holds(c: Int): Boolean = c > 0 }
  case object Ge extends CmpOp { val sym = ">="; def holds(c: Int): Boolean = c >= 0 }
  case object EqOp extends CmpOp { val sym = "="; def holds(c: Int): Boolean = c == 0 }

  /** Catalyst's order of doubles: equal when `x == y`, otherwise as
    * `java.lang.Double.compare`, so NaN equals NaN and is above +∞, and −0.0
    * equals 0.0. Negative, zero or positive as `x` is below, at or above `y`.
    */
  def compare(x: Double, y: Double): Int = if (x == y) 0 else java.lang.Double.compare(x, y)

  /** Numeric unary comparison `attr ⊘ value`. */
  final case class NumCmp(attr: String, op: CmpOp, value: Double) extends Pred {
    def evalValue(x: Any): Boolean = x match {
      case n: Number => op.holds(compare(n.doubleValue, value))
      case _ => false
    }
    def toColumn: Column = op match {
      case Lt => col(attr) < value; case Le => col(attr) <= value
      case Gt => col(attr) > value; case Ge => col(attr) >= value
      case EqOp => col(attr) === value
    }
    def describe: String = s"$attr ${op.sym} $value"
  }

  /** Categorical equality `attr = 'value'`. */
  final case class StrEq(attr: String, value: String) extends Pred {
    def evalValue(x: Any): Boolean = x match {
      case s: String => s == value
      case _ => false
    }
    def toColumn: Column = col(attr) === value
    def describe: String = s"$attr = '$value'"
  }

  /** Set membership `attr IN (v1, …)`. */
  final case class In(attr: String, values: Set[String]) extends Pred {
    def evalValue(x: Any): Boolean = x match {
      case s: String => values.contains(s)
      case _ => false
    }
    def toColumn: Column = col(attr).isInCollection(values)
    def describe: String = s"$attr IN (${values.toSeq.sorted.mkString(",")})"
  }

  /** Existence check `attr IS NOT NULL`. */
  final case class NotNull(attr: String) extends Pred {
    def evalValue(x: Any): Boolean = x != null
    def toColumn: Column = col(attr).isNotNull
    def describe: String = s"$attr IS NOT NULL"
  }

  /** Centroid-attribute equality `t.c = cid` (§4.1.1 transformation). */
  final case class CentroidEq(cid: Int) extends Pred {
    val attr: String = CentroidAttr
    def evalValue(x: Any): Boolean = x match {
      case n: Number => n.intValue == cid
      case _ => false
    }
    def toColumn: Column = col(CentroidAttr) === cid
    def describe: String = s"$CentroidAttr = $cid"
  }

  /** Conjunction of predicates as one Catalyst filter column. */
  def and(preds: Seq[Pred]): Column =
    preds.map(_.toColumn).reduceOption(_ && _).getOrElse(lit(true))
}
