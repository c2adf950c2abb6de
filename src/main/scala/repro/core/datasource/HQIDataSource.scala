package repro.core.datasource

import java.io.{BufferedInputStream, DataInputStream, EOFException, FileInputStream, IOException}
import java.util

import org.apache.spark.sql.catalyst.InternalRow
import org.apache.spark.sql.catalyst.expressions.GenericInternalRow
import org.apache.spark.sql.catalyst.util.GenericArrayData
import org.apache.spark.sql.connector.catalog.{SupportsRead, Table, TableCapability, TableProvider}
import org.apache.spark.sql.connector.expressions.Transform
import org.apache.spark.sql.connector.read._
import org.apache.spark.sql.sources
import org.apache.spark.sql.sources.{DataSourceRegister, Filter}
import org.apache.spark.sql.types._
import org.apache.spark.sql.util.CaseInsensitiveStringMap
import org.apache.spark.unsafe.types.UTF8String

import repro.core.engine.IndexBuilder
import repro.core.qdtree.Pred

/** DataSourceV2 reader for persisted HQI indexes (`format("hqi")`).
  *
  * One [[InputPartition]] per stored index partition. The scan builder
  * implements filter pushdown: pushed relational filters are translated to
  * predicates and the stored index's `Routing` prunes the partitions that
  * cannot satisfy them — the same rule, and the same code, as HQI's query
  * routing (§4.1.3). Pushed filters are reported back to Spark for
  * re-evaluation, so pruning is purely a performance optimization and never
  * changes results.
  */
class HQIDataSource extends TableProvider with DataSourceRegister {
  override def shortName(): String = "hqi"

  private def path(options: CaseInsensitiveStringMap): String = {
    val p = options.get("path")
    require(p != null, "hqi source requires a path")
    p
  }

  override def inferSchema(options: CaseInsensitiveStringMap): StructType =
    HQIDataSource.schemaFor(HQIStore.readMeta(path(options)))

  override def getTable(schema: StructType, partitioning: Array[Transform],
                        properties: util.Map[String, String]): Table = {
    val p = properties.get("path")
    require(p != null, "hqi source requires a path")
    new HQITable(p, HQIStore.readMeta(p))
  }
}

object HQIDataSource {
  /** Full table schema: id, vec, attributes, then the layout columns. */
  def schemaFor(meta: HQIStore.HQIStoreMeta): StructType = {
    val attrFields = meta.attrs.map(af => StructField(af.name, af.dataType, nullable = true))
    StructType(
      Seq(StructField("id", LongType, nullable = false),
          StructField("vec", ArrayType(FloatType, containsNull = false), nullable = false)) ++
      attrFields ++
      Seq(StructField(IndexBuilder.PartCol, IntegerType, nullable = false),
          StructField(IndexBuilder.ClusterCol, IntegerType, nullable = false)))
  }

  /** Translate a pushed source filter to a predicate, if it has one; routing
    * then matches it against the index's cut predicates by value.
    */
  def toPred(f: Filter): Option[Pred] = f match {
    case sources.EqualTo(a, v: String)             => Some(Pred.StrEq(a, v))
    case sources.EqualTo(a, v: java.lang.Number)   => Some(Pred.NumCmp(a, Pred.EqOp, v.doubleValue))
    case sources.LessThan(a, v: java.lang.Number)  => Some(Pred.NumCmp(a, Pred.Lt, v.doubleValue))
    case sources.LessThanOrEqual(a, v: java.lang.Number) => Some(Pred.NumCmp(a, Pred.Le, v.doubleValue))
    case sources.GreaterThan(a, v: java.lang.Number) => Some(Pred.NumCmp(a, Pred.Gt, v.doubleValue))
    case sources.GreaterThanOrEqual(a, v: java.lang.Number) => Some(Pred.NumCmp(a, Pred.Ge, v.doubleValue))
    case sources.IsNotNull(a)                      => Some(Pred.NotNull(a))
    case sources.In(a, vs) if vs.forall(_.isInstanceOf[String]) =>
      Some(Pred.In(a, vs.map(_.asInstanceOf[String]).toSet))
    case _ => None
  }
}

private[datasource] class HQITable(path: String, meta: HQIStore.HQIStoreMeta)
    extends Table with SupportsRead {
  override def name(): String = s"hqi:$path"
  override def schema(): StructType = HQIDataSource.schemaFor(meta)
  override def capabilities(): util.Set[TableCapability] =
    util.EnumSet.of(TableCapability.BATCH_READ)
  override def newScanBuilder(options: CaseInsensitiveStringMap): ScanBuilder =
    new HQIScanBuilder(path, meta)
}

private[datasource] class HQIScanBuilder(path: String, meta: HQIStore.HQIStoreMeta)
    extends ScanBuilder with SupportsPushDownFilters {

  private var pushed: Array[Filter] = Array.empty

  override def pushFilters(filters: Array[Filter]): Array[Filter] = {
    pushed = filters
    // We only prune partitions — every filter must still be re-applied by
    // Spark, so all filters are returned as residuals.
    filters
  }

  override def pushedFilters(): Array[Filter] = pushed

  override def build(): Scan = {
    val routed = meta.routing.route(pushed.toSeq.flatMap(HQIDataSource.toPred), None, meta.leaves.size).toSet
    val surviving = meta.leaves.filter(l => routed(l.partId))
    new HQIScan(path, meta, surviving)
  }
}

private[datasource] class HQIScan(path: String, meta: HQIStore.HQIStoreMeta,
                                  leaves: Seq[HQIStore.LeafEntry])
    extends Scan with Batch {
  override def readSchema(): StructType = HQIDataSource.schemaFor(meta)
  override def toBatch: Batch = this
  override def description(): String =
    s"HQIScan(path=$path, partitions=${leaves.size}/${meta.leaves.size})"

  override def planInputPartitions(): Array[InputPartition] =
    leaves.map(l => HQIInputPartition(s"$path/${l.file}", l.partId): InputPartition).toArray

  override def createReaderFactory(): PartitionReaderFactory =
    new HQIReaderFactory(meta)
}

private[datasource] final case class HQIInputPartition(file: String, partId: Int) extends InputPartition

private[datasource] class HQIReaderFactory(meta: HQIStore.HQIStoreMeta)
    extends PartitionReaderFactory {
  override def createReader(partition: InputPartition): PartitionReader[InternalRow] =
    new HQIPartitionReader(partition.asInstanceOf[HQIInputPartition], meta)
}

/** Streams one partition file as full rows; Spark projects them. */
private[datasource] class HQIPartitionReader(part: HQIInputPartition, meta: HQIStore.HQIStoreMeta)
    extends PartitionReader[InternalRow] {

  private def truncated(what: String, e: EOFException) =
    new IOException(s"${part.file} is truncated: $what", e)

  private val in = new DataInputStream(new BufferedInputStream(new FileInputStream(part.file)))
  private val total =
    try in.readInt()
    catch { case e: EOFException => in.close(); throw truncated("no row-count header", e) }
  private var readCount = 0
  private var current: InternalRow = _

  override def next(): Boolean = {
    if (readCount >= total) return false
    try {
      val id = in.readLong()
      val cluster = in.readInt()
      val vec = new Array[Float](meta.dim)
      var i = 0
      while (i < meta.dim) { vec(i) = in.readFloat(); i += 1 }
      val attrVals = new Array[Any](meta.attrs.length)
      var a = 0
      while (a < meta.attrs.length) {
        val present = in.readByte()
        attrVals(a) =
          if (present == 0) null
          else if (meta.attrs(a).dataType == DoubleType) in.readDouble()
          else UTF8String.fromString(in.readUTF())
        a += 1
      }
      current = new GenericInternalRow(
        (Array[Any](id, new GenericArrayData(vec.map(f => f: Any))) ++ attrVals) ++ Array[Any](part.partId, cluster))
      readCount += 1
      true
    } catch {
      case e: EOFException => throw truncated(s"read $readCount of $total rows", e)
    }
  }

  override def get(): InternalRow = current
  override def close(): Unit = in.close()
}
