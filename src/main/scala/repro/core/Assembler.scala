package repro.core

import org.apache.spark.rdd.RDD
import org.apache.spark.sql.Dataset
import org.apache.spark.storage.StorageLevel
import repro.pregel.PregelStats

/** The paper's evaluated workflow ①②③④⑤⑥②③ (§V): build the DBG, label
  * and merge contigs, filter bubbles, remove tips, then label and merge
  * once more to grow longer contigs out of vertices that error correction
  * made unambiguous.
  */
object Assembler {

  final case class Opts(
      k: Int = 31,
      theta: Long = 1,                // keep (k+1)-mers with count > theta
      tipLen: Int = 80,               // paper §V
      bubbleEditThr: Int = 5,         // paper §V
      method: ContigLabeling.Method = ContigLabeling.LR,
      errorCorrection: Boolean = true, // run ④⑤⑥②③ after the first merge
      dropDanglingShort: Boolean = true,
  )

  /** One labeling round: the graph it labeled (cached) and its labeling. */
  final case class Round(graph: RDD[(Long, Node)], labeling: ContigLabeling.Result)

  final case class Result(
      finalContigs: RDD[(Long, Node)],
      round1Contigs: RDD[(Long, Node)],
      dbgVertices: Long,          // k-mer vertices in the DBG
      graph2Vertices: Long,       // vertices entering round-2 labeling
      round1: Round,              // the k-mer graph
      round2: Option[Round],      // the mixed contig/k-mer graph
      tipStats: Option[PregelStats],
  ) {
    def labeling1: PregelStats = round1.labeling.stats
    def labeling2: Option[PregelStats] = round2.map(_.labeling.stats)

    /** Final contig sequences as strings. */
    def sequences: RDD[String] = finalContigs.map(_._2.seq.toString)
  }

  /** Assemble from reads with the standard (k+1)-mer-based DBG. */
  def assemble(reads: Dataset[String], opts: Opts): Result = {
    val vertices = DbgConstruction.build(reads, opts.k, opts.theta)
    assembleFromNodes(DbgConstruction.nodes(vertices, opts.k), opts)
  }

  /** Assemble from an existing node graph (baselines plug in their own). */
  def assembleFromNodes(nodes0: RDD[(Long, Node)], opts: Opts): Result = {
    val nodes = nodes0.persist(StorageLevel.MEMORY_AND_DISK)
    val dbgVertices = nodes.count()
    val mergeOpts = ContigMerging.Opts(opts.k, opts.dropDanglingShort, opts.tipLen)

    // ② + ③ — first labeling and merging round.
    val lab1 = ContigLabeling.label(nodes, opts.method)
    val contigs1 = ContigMerging.merge(nodes, lab1.labels, mergeOpts)
      .persist(StorageLevel.MEMORY_AND_DISK)

    if (!opts.errorCorrection) {
      Result(contigs1, contigs1, dbgVertices, 0L, Round(nodes, lab1), None, None)
    } else {
      // ④ bubble filtering, ⑤ tip removing.
      val bubbled = BubbleFiltering.filter(contigs1, opts.bubbleEditThr)
      val amb = nodes.filter(_._2.typ == VType.MN)
      val tip = TipRemoving.run(amb, bubbled, opts.k, opts.tipLen)
      val nodes2 = tip.nodes.persist(StorageLevel.MEMORY_AND_DISK)
      val graph2Vertices = nodes2.count()

      // ⑥②③ — second labeling and merging round over the mixed graph.
      val lab2 = ContigLabeling.label(nodes2, opts.method)
      val contigs2 = ContigMerging.merge(nodes2, lab2.labels, mergeOpts)
        .persist(StorageLevel.MEMORY_AND_DISK)

      Result(contigs2, contigs1, dbgVertices, graph2Vertices,
             Round(nodes, lab1), Some(Round(nodes2, lab2)), Some(tip.stats))
    }
  }
}
