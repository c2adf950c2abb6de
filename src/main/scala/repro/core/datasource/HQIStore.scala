package repro.core.datasource

import java.io._
import java.nio.file.{Files, Paths}

import org.apache.spark.sql.Row
import org.apache.spark.sql.types.{DataType, DoubleType, StringType}

import repro.core.engine.{IndexBuilder, PartitionedIndex, Routing}

/** On-disk layout of a persisted HQI index (read back by [[HQIDataSource]]):
  *
  * {{{
  *   <path>/_meta.bin        java-serialized HQIStoreMeta
  *   <path>/part-00000.hqi   one binary row file per index partition
  * }}}
  *
  * Row encoding per record: id (long), cluster (int), vec (d floats), then
  * per attribute a presence byte followed by the value (double or UTF).
  * Partition files are ordered by `(cluster, id)` so posting lists are
  * physically contiguous.
  */
object HQIStore {

  /** Attribute field: name plus its Spark type, `DoubleType` or `StringType`. */
  final case class AttrField(name: String, dataType: DataType) extends Serializable

  /** Per-partition entry: file name and row count. */
  final case class LeafEntry(partId: Int, size: Long, file: String) extends Serializable

  /** @param routing decides which leaves a pushed conjunction can touch: the
    *                index's own routing for a qd-tree layout, [[Routing.All]]
    *                (never prune) for the others
    */
  final case class HQIStoreMeta(dim: Int,
                                metricName: String,
                                attrs: Seq[AttrField],
                                routing: Routing,
                                leaves: Seq[LeafEntry]) extends Serializable

  def metaPath(path: String): String = s"$path/_meta.bin"

  def writeMeta(path: String, meta: HQIStoreMeta): Unit = {
    val out = new ObjectOutputStream(new BufferedOutputStream(new FileOutputStream(metaPath(path))))
    try out.writeObject(meta) finally out.close()
  }

  def readMeta(path: String): HQIStoreMeta = {
    val in = new ObjectInputStream(new BufferedInputStream(new FileInputStream(metaPath(path))))
    try in.readObject().asInstanceOf[HQIStoreMeta] finally in.close()
  }

  /** Persist a built index. Collects partition contents through Spark and
    * writes one file per `__part` (bounded at reproduction scale).
    */
  def write(index: PartitionedIndex, path: String): Unit = {
    Files.createDirectories(Paths.get(path))
    val schema = index.data.schema
    val idIdx = schema.fieldIndex("id")
    val vecIdx = schema.fieldIndex("vec")
    val partIdx = schema.fieldIndex(IndexBuilder.PartCol)
    val clusterIdx = schema.fieldIndex(IndexBuilder.ClusterCol)
    val attrs: Seq[AttrField] = index.attrCols.map { a =>
      val dt = schema(a).dataType
      if (dt != DoubleType && dt != StringType)
        throw new IllegalArgumentException(s"unsupported attr type ${dt.typeName} for $a")
      AttrField(a, dt)
    }
    val attrIdx = index.attrCols.map(schema.fieldIndex)
    val rows = index.data.collect()
    val byPart = rows.groupBy(_.getInt(partIdx))
    val dim = rows.headOption.map(_.getSeq[Float](vecIdx).size).getOrElse(0)

    val leafEntries = index.leaves.map { lm =>
      val fileName = f"part-${lm.partId}%05d.hqi"
      val partRows = byPart.getOrElse(lm.partId, Array.empty[Row])
        .sortBy(r => (r.getInt(clusterIdx), r.getLong(idIdx)))
      val out = new DataOutputStream(new BufferedOutputStream(new FileOutputStream(s"$path/$fileName")))
      try {
        out.writeInt(partRows.length)
        for (r <- partRows) {
          out.writeLong(r.getLong(idIdx))
          out.writeInt(r.getInt(clusterIdx))
          val v = r.getSeq[Float](vecIdx)
          var i = 0
          while (i < dim) { out.writeFloat(v(i)); i += 1 }
          for ((af, ai) <- attrs.zip(attrIdx)) {
            if (r.isNullAt(ai)) out.writeByte(0)
            else {
              out.writeByte(1)
              if (af.dataType == DoubleType) out.writeDouble(r.getDouble(ai))
              else out.writeUTF(r.getString(ai))
            }
          }
        }
      } finally out.close()
      LeafEntry(lm.partId, partRows.length.toLong, fileName)
    }

    // Qd-tree semantic bits were evaluated by Catalyst, so they prune Spark
    // scans safely; range bounds compare like Scala (NaN lands in bucket 0,
    // while Catalyst's NaN is greater than every number), so they do not.
    val routing = index.routing match {
      case r: Routing.ByQDTree => r
      case _                   => Routing.All
    }
    writeMeta(path, HQIStoreMeta(dim, index.metric.name, attrs, routing, leafEntries.toSeq))
  }
}
