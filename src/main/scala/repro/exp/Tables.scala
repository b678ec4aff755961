package repro.exp

import org.apache.spark.rdd.RDD
import org.apache.spark.sql.SparkSession
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

  /** Runs `work`, then unpersists every RDD it left cached (the assemblies'
    * graphs, contigs and last Pregel states), so that one dataset's blocks
    * do not stay in the block manager while the next one runs.
    */
  private def freeingCached[A](spark: SparkSession)(work: => A): A = {
    val before = spark.sparkContext.getPersistentRDDs.keySet
    try work
    finally spark.sparkContext.getPersistentRDDs.foreach { case (id, rdd) =>
      if (!before.contains(id)) rdd.unpersist(blocking = false)
    }
  }

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

  /** One labeling round's row. LR's labels and counters are the
    * assembly's own; S-V runs here, once, on the same graph.
    */
  def compareLabeling(name: String, round: Assembler.Round): LabelingRow = {
    val vertices = round.graph.count()
    val unamb    = round.graph.filter(_._2.typ != VType.MN).count()
    val sv = ContigLabeling.labelSV(round.graph)
    sv.labels.count()
    LabelingRow(name, round.labeling.stats, sv.stats, longestPath(round.labeling.labels),
                vertices, unamb)
  }

  /** Per-dataset round-1 (k-mer) and round-2 (contig) labeling rows, plus
    * the merge-round contig counts reported in the paper's §V text.
    */
  final case class LabelingPair(round1: LabelingRow, round2: LabelingRow,
                                round1Contigs: Long, finalContigs: Long)

  /** One PPA assembly with the paper's parameters (LR labeling), whose two
    * labeling rounds fill the LR columns of Tables II and III.
    */
  def labelingPair(spark: SparkSession, ds: DnaDataset): LabelingPair = freeingCached(spark) {
    val res = Assembler.assemble(ds.reads(spark), Assembler.Opts())
    LabelingPair(compareLabeling(ds.name, res.round1),
                 compareLabeling(ds.name, res.round2.get),
                 res.round1Contigs.count(), res.finalContigs.count())
  }

  def printLabelingTable(title: String, rows: Seq[LabelingRow]): String = {
    val sb = new StringBuilder
    sb ++= s"$title\n"
    def run(s: PregelStats) = if (s.serial) "driver" else "Spark"
    sb ++= f"${"Dataset"}%-8s ${"Vtx"}%9s ${"Unamb"}%9s |${"LR SS"}%6s ${"SV SS"}%6s |${"LR Msgs"}%12s ${"SV Msgs"}%12s |${"LR s"}%8s ${"SV s"}%8s ${"Path"}%9s ${"LR/SV run"}%14s\n"
    rows.foreach { r =>
      sb ++= f"${r.dataset}%-8s ${r.vertices}%9d ${r.unambiguous}%9d |${r.lr.supersteps}%6d ${r.sv.supersteps}%6d |${r.lr.messages}%12d ${r.sv.messages}%12d |${r.lr.millis / 1000.0}%8.2f ${r.sv.millis / 1000.0}%8.2f ${r.longestPath}%9d ${run(r.lr) + "/" + run(r.sv)}%14s\n"
    }
    sb.toString
  }

  // ------------------------------------------------------------ Tables IV/V

  final case class QualityRow(assembler: String, report: Quast.Report,
                              n50Round1: Long = 0L, n50Final: Long = 0L)

  def runAllAssemblers(spark: SparkSession, ds: DnaDataset,
                       reference: Option[String]): Seq[QualityRow] = freeingCached(spark) {
    val reads = ds.reads(spark).cache()
    val opts  = Assembler.Opts()
    def eval(name: String, r: Assembler.Result): QualityRow = {
      def n50of(c: RDD[(Long, Node)]) =
        Quast.n50(c.values.map(_.seqLen.toLong).filter(_ >= 500).collect().toSeq)
      QualityRow(name, Quast.evaluate(r.sequences, reference, opts.k),
                 n50Round1 = n50of(r.round1Contigs), n50Final = n50of(r.finalContigs))
    }
    val rows = Seq(
      eval("PPA",   Assembler.assemble(reads, opts)),
      eval("ABySS", AbyssLike.assemble(reads, opts)),
      eval("Ray",   RayLike.assemble(reads, opts)),
      eval("SWAP",  SwapLike.assemble(reads, opts)),
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
