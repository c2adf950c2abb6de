package repro.core.qdtree

import org.apache.spark.sql.Column
import org.apache.spark.sql.functions._

/** Unary Boolean predicate over a tuple's relational attributes (Definition 2)
  * or over the derived centroid attribute `t.c` (§4.1.1).
  *
  * Each predicate can be evaluated two ways, and both must agree:
  *   - [[Pred.toColumn]] — as a Catalyst [[Column]], for the tuple
  *     signatures of the index build's collect and for filter pushdown;
  *   - [[Pred.evalValue]] — on one attribute value inside `mapPartitions`,
  *     for per-cell filter bitmaps during batch search.
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

  sealed trait CmpOp extends Serializable { def sym: String }
  case object Lt extends CmpOp { val sym = "<"  }
  case object Le extends CmpOp { val sym = "<=" }
  case object Gt extends CmpOp { val sym = ">"  }
  case object Ge extends CmpOp { val sym = ">=" }
  case object EqOp extends CmpOp { val sym = "=" }

  /** Numeric unary comparison `attr ⊘ value`. */
  final case class NumCmp(attr: String, op: CmpOp, value: Double) extends Pred {
    def evalValue(x: Any): Boolean = x match {
      case n: Number =>
        val v = n.doubleValue
        op match {
          case Lt => v < value; case Le => v <= value
          case Gt => v > value; case Ge => v >= value
          case EqOp => v == value
        }
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
