package repro.exp

import org.apache.spark.rdd.RDD
import org.apache.spark.sql.{Dataset, SparkSession}
import repro.baselines.{AbyssLike, RayLike, SwapLike}
import repro.core._
import repro.dna.Datasets
import repro.dna.Datasets.DnaDataset
import repro.pregel.PregelStats
import repro.quality.Quast

/** Harnesses reproducing the paper's evaluation tables (shared by the
  * spark-submit jobs in jobs/ and the bench suites in bench/).
  */
object Tables {

  val K = 31            // paper §V
  val Theta = 1L        // DESIGN.md §6
  val TipLen = 80       // paper §V
  val BubbleThr = 5     // paper §V

  def ppaOpts(method: ContigLabeling.Method = ContigLabeling.LR): Assembler.Opts =
    Assembler.Opts(k = K, theta = Theta, tipLen = TipLen, bubbleEditThr = BubbleThr,
                   method = method)

  // ------------------------------------------------------------------ Table I

  final case class DatasetRow(name: String, paperName: String, nReads: Long,
                              avgReadLen: Double, refLen: Long)

  def table1(spark: SparkSession): Seq[DatasetRow] =
    Datasets.all.map { ds =>
      val reads = ds.reads(spark).cache()
      val n     = reads.count()
      val avg   = reads.rdd.map(_.length.toLong).fold(0L)(_ + _).toDouble / n
      val row   = DatasetRow(ds.name, ds.paperName, n, avg, ds.genome.length.toLong)
      reads.unpersist()
      row
    }

  def printTable1(rows: Seq[DatasetRow]): String = {
    val sb = new StringBuilder
    sb ++= "Table I -- Datasets (simulated; see DESIGN.md section 2)\n"
    sb ++= f"${"Dataset"}%-8s ${"Paper dataset"}%-28s ${"#Reads"}%10s ${"AvgLen"}%8s ${"RefLen"}%10s\n"
    rows.foreach { r =>
      sb ++= f"${r.name}%-8s ${r.paperName}%-28s ${r.nReads}%10d ${r.avgReadLen}%8.1f ${r.refLen}%10d\n"
    }
    sb.toString
  }

  // ----------------------------------------------------------- Tables II/III

  /** One labeling run's Table II/III columns. `longestPath` is the largest
    * LR label group, in vertices (ℓ): edge-bound min-label propagation (the
    * connected-components algorithm of edge-only vertex-centric engines)
    * needs between ⌈(ℓ−1)/2⌉ and ℓ−1 iterations to label that path, against
    * LR's O(log n) supersteps.
    */
  final case class LabelingRow(dataset: String,
                               lr: PregelStats, sv: PregelStats,
                               longestPath: Long, vertices: Long,
                               unambiguous: Long)

  /** The size of the largest label group, in vertices (0 if none). */
  def longestPath(labels: RDD[(Long, Long)]): Long =
    labels.map { case (_, l) => (l, 1L) }.reduceByKey(_ + _).values.fold(0L)(math.max)

  /** One dataset's labeling comparison for a given node graph. */
  def compareLabeling(name: String, nodes: RDD[(Long, Node)]): LabelingRow = {
    val vertices = nodes.count()
    val unamb    = nodes.filter(_._2.typ != VType.MN).count()
    val lr = ContigLabeling.labelLR(nodes)
    val pathLen = longestPath(lr.labels) // forces LR
    val sv = ContigLabeling.labelSV(nodes)
    sv.labels.count()
    LabelingRow(name, lr.stats, sv.stats, pathLen, vertices, unamb)
  }

  /** Per-dataset round-1 (k-mer) and round-2 (contig) labeling rows, plus
    * the merge-round vertex counts reported in the paper's §V text.
    */
  final case class LabelingPair(round1: LabelingRow, round2: LabelingRow,
                                dbgVertices: Long, round1Contigs: Long,
                                finalContigs: Long)

  def labelingPair(spark: SparkSession, ds: DnaDataset): LabelingPair = {
    val reads = ds.reads(spark).cache()
    val nodes = DbgConstruction.nodes(DbgConstruction.build(reads, K, Theta), K).cache()
    val row1  = compareLabeling(ds.name, nodes)

    // Build the round-2 graph with the standard PPA pipeline (LR labels).
    val mergeOpts = ContigMerging.Opts(K, dropDanglingShort = true, TipLen)
    val lab1 = ContigLabeling.labelLR(nodes)
    val contigs1 = ContigMerging.merge(nodes, lab1.labels, mergeOpts).cache()
    val bubbled  = BubbleFiltering.filter(contigs1, BubbleThr)
    val amb      = nodes.filter(_._2.typ == VType.MN)
    val nodes2   = TipRemoving.run(amb, bubbled, K, TipLen).nodes.cache()
    val row2     = compareLabeling(ds.name, nodes2)

    val lab2   = ContigLabeling.labelLR(nodes2)
    val finalC = ContigMerging.merge(nodes2, lab2.labels, mergeOpts).count()
    val pair = LabelingPair(row1, row2, nodes.count(), contigs1.count(), finalC)
    reads.unpersist(); nodes.unpersist(); contigs1.unpersist(); nodes2.unpersist()
    pair
  }

  def printLabelingTable(title: String, rows: Seq[LabelingRow]): String = {
    val sb = new StringBuilder
    sb ++= s"$title\n"
    sb ++= f"${"Dataset"}%-8s ${"Vtx"}%9s ${"Unamb"}%9s |${"LR SS"}%6s ${"SV SS"}%6s |${"LR Msgs"}%12s ${"SV Msgs"}%12s |${"LR s"}%8s ${"SV s"}%8s ${"Path"}%9s\n"
    rows.foreach { r =>
      sb ++= f"${r.dataset}%-8s ${r.vertices}%9d ${r.unambiguous}%9d |${r.lr.supersteps}%6d ${r.sv.supersteps}%6d |${r.lr.messages}%12d ${r.sv.messages}%12d |${r.lr.millis / 1000.0}%8.2f ${r.sv.millis / 1000.0}%8.2f ${r.longestPath}%9d\n"
    }
    sb.toString
  }

  // ------------------------------------------------------------ Tables IV/V

  final case class QualityRow(assembler: String, report: Quast.Report,
                              n50Round1: Long = 0L, n50Final: Long = 0L)

  def runAllAssemblers(spark: SparkSession, ds: DnaDataset,
                       reference: Option[String]): Seq[QualityRow] = {
    val reads = ds.reads(spark).cache()
    def eval(name: String, r: Assembler.Result): QualityRow = {
      def n50of(c: org.apache.spark.rdd.RDD[(Long, Node)]) =
        Quast.n50(c.values.map(_.seqLen.toLong).filter(_ >= 500).collect().toSeq)
      QualityRow(name, Quast.evaluate(r.sequences, reference, K),
                 n50Round1 = n50of(r.round1Contigs), n50Final = n50of(r.finalContigs))
    }
    val rows = Seq(
      eval("PPA",   Assembler.assemble(reads, ppaOpts())),
      eval("ABySS", AbyssLike.assemble(reads, ppaOpts())),
      eval("Ray",   RayLike.assemble(reads, ppaOpts())),
      eval("SWAP",  SwapLike.assemble(reads, ppaOpts())),
    )
    reads.unpersist()
    rows
  }

  def printQualityTable(title: String, rows: Seq[QualityRow],
                        withReference: Boolean): String = {
    val sb = new StringBuilder
    sb ++= s"$title\n"
    def line(metric: String, f: Quast.Report => String): Unit = {
      sb ++= f"$metric%-26s"
      rows.foreach(r => sb ++= f"${f(r.report)}%14s")
      sb ++= "\n"
    }
    sb ++= f"${"Metric"}%-26s"
    rows.foreach(r => sb ++= f"${r.assembler}%14s")
    sb ++= "\n"
    line("# contigs (>=500bp)", _.nContigs.toString)
    line("Total length", _.totalLength.toString)
    line("N50", _.n50.toString)
    line("Largest contig", _.largestContig.toString)
    line("GC (%)", r => f"${r.gcPct}%.2f")
    if (withReference) {
      line("# misassemblies", _.misassemblies.get.toString)
      line("Misassembled length", _.misassembledLength.get.toString)
      line("Unaligned length", _.unalignedLength.get.toString)
      line("Genome fraction (%)", r => f"${r.genomeFraction.get}%.3f")
      line("Mismatches /100kbp", r => f"${r.mismatchesPer100kbp.get}%.2f")
      line("Indels /100kbp", r => f"${r.indelsPer100kbp.get}%.2f")
      line("Largest alignment", _.largestAlignment.get.toString)
    }
    sb.toString
  }

  def table4(spark: SparkSession): Seq[QualityRow] =
    runAllAssemblers(spark, Datasets.HC2, Some(Datasets.HC2.genome))

  def table5(spark: SparkSession): Seq[QualityRow] =
    runAllAssemblers(spark, Datasets.HC14, None)
}
