package perfbench

import org.apache.spark.rdd.RDD
import org.apache.spark.sql.Dataset
import org.apache.spark.storage.StorageLevel
import repro.core._
import repro.pregel.PregelStats

/** `Assembler.assemble` taken apart: the same public stage functions in
  * the order of `Assembler.assembleFromNodes`, each output forced before
  * the next stage starts, so every stage gets its own wall time and its
  * own Spark span. Its final contigs are compared with those of
  * `Assembler.assemble` (the drift guard), so this copy cannot silently
  * diverge from the pipeline it measures.
  */
object Staged {

  val Stages: Seq[String] =
    Seq("construct", "decode", "label1", "merge1", "bubble", "tip", "label2", "merge2")

  /** After the pipeline, the round-1 graph is labelled once more with
    * S-V, the paper's other labeling method (Table II), as its own span.
    */
  val SvStage = "label1_sv"

  final case class Run(
      stageSeconds: Map[String, Double],
      pregel: Map[String, PregelStats],   // label1, tip, label2, label1_sv
      graph1Vertices: Long,
      graph1CachedBytes: Long,
      graph2Vertices: Long,
      contigs1: Long,
      graph1: Array[(Long, Node)],         // decoded round-1 nodes
      labels1: Array[(Long, Long)],
      labels1Sv: Array[(Long, Long)],
      round1Contigs: Array[Node],
      finalContigs: Array[String],
  ) {
    def totalSeconds: Double = Stages.map(stageSeconds).sum
  }

  def run(reads: Dataset[String], opts: Assembler.Opts): Run = {
    val sc = reads.sparkSession.sparkContext
    val seconds = scala.collection.mutable.LinkedHashMap.empty[String, Double]
    def stage[T](name: String)(body: => T): T = SparkCounters.withSpan(sc, name) {
      val t0 = System.nanoTime()
      val out = body
      seconds(name) = (System.nanoTime() - t0) / 1e9
      out
    }
    def forced(rdd: RDD[(Long, Node)]): (RDD[(Long, Node)], Long) = {
      val p = rdd.persist(StorageLevel.MEMORY_AND_DISK)
      (p, p.count())
    }
    val mergeOpts = ContigMerging.Opts(opts.k, opts.dropDanglingShort, opts.tipLen)

    val vertices = stage("construct") {
      val v = DbgConstruction.build(reads, opts.k, opts.theta).persist(StorageLevel.MEMORY_AND_DISK)
      v.count()
      v
    }
    val (nodes, nVertices) = stage("decode")(forced(DbgConstruction.nodes(vertices, opts.k)))
    vertices.unpersist(blocking = false)
    val cachedBytes = sc.getRDDStorageInfo.filter(_.id == nodes.id).map(i => i.memSize + i.diskSize).sum

    val lab1 = stage("label1") {
      val l = ContigLabeling.label(nodes, opts.method)
      val labels = l.labels.persist(StorageLevel.MEMORY_AND_DISK)
      labels.count()
      l.copy(labels = labels)
    }
    val (contigs1, nContigs1) = stage("merge1")(forced(ContigMerging.merge(nodes, lab1.labels, mergeOpts)))
    val (bubbled, _) = stage("bubble")(forced(BubbleFiltering.filter(contigs1, opts.bubbleEditThr)))
    val (tip, nodes2, nVertices2) = stage("tip") {
      val amb = nodes.filter(_._2.typ == VType.MN)
      val t = TipRemoving.run(amb, bubbled, opts.k, opts.tipLen)
      val (n2, c) = forced(t.nodes)
      (t, n2, c)
    }
    val lab2 = stage("label2") {
      val l = ContigLabeling.label(nodes2, opts.method)
      val labels = l.labels.persist(StorageLevel.MEMORY_AND_DISK)
      labels.count()
      l.copy(labels = labels)
    }
    val (contigs2, _) = stage("merge2")(forced(ContigMerging.merge(nodes2, lab2.labels, mergeOpts)))

    val labSv = stage(SvStage) {
      val l = ContigLabeling.label(nodes, ContigLabeling.SV)
      val labels = l.labels.persist(StorageLevel.MEMORY_AND_DISK)
      labels.count()
      l.copy(labels = labels)
    }

    Run(
      stageSeconds = seconds.toMap,
      pregel = Map("label1" -> lab1.stats, "tip" -> tip.stats, "label2" -> lab2.stats, SvStage -> labSv.stats),
      graph1Vertices = nVertices,
      graph1CachedBytes = cachedBytes,
      graph2Vertices = nVertices2,
      contigs1 = nContigs1,
      graph1 = nodes.collect(),
      labels1 = lab1.labels.collect(),
      labels1Sv = labSv.labels.collect(),
      round1Contigs = contigs1.values.collect(),
      finalContigs = contigs2.map(_._2.seq.toString).collect(),
    )
  }
}
