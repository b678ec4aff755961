package repro.quality

import org.apache.spark.rdd.RDD
import repro.dna.{Dna, Kmer}
import scala.collection.mutable

/** QUAST-substitute assembly quality assessment (paper §V, Tables IV/V).
  *
  * Reference-free metrics: number of contigs (>= minLen, QUAST's default
  * 500 bp), total length, N50, largest contig, GC%. Reference-based
  * metrics use seed-and-extend alignment on exact canonical-k-mer anchors:
  * seeds vote for (strand, diagonal) clusters; because the read simulator
  * introduces substitution errors only, correct alignments are single
  * diagonals and indels are structurally zero. A contig whose best cluster
  * explains < 90% of its seeded positions is counted misassembled (the
  * analogue of QUAST's relocation breakpoints).
  */
object Quast {

  final case class Report(
      nContigs: Long,
      totalLength: Long,
      n50: Long,
      largestContig: Long,
      gcPct: Double,
      misassemblies: Option[Long],
      misassembledLength: Option[Long],
      unalignedLength: Option[Long],
      genomeFraction: Option[Double],
      mismatchesPer100kbp: Option[Double],
      indelsPer100kbp: Option[Double],
      largestAlignment: Option[Long],
  )

  /** Standard N50: largest L such that contigs of length >= L sum to at
    * least half the total assembly length.
    */
  def n50(lengths: Seq[Long]): Long = {
    if (lengths.isEmpty) return 0L
    val sorted = lengths.sortBy(-_)
    val total  = sorted.sum
    var acc = 0L
    sorted.find { l => acc += l; acc * 2 >= total }.getOrElse(0L)
  }

  /** Per-contig alignment summary against the reference. */
  final case class Alignment(
      len: Long, gc: Long, misassembled: Boolean,
      alignedOnContig: Long, mismatches: Long, largestBlock: Long,
      refBlocks: Seq[(Int, Int)], // covered [start, end) ranges on the reference
  )

  /** Canonical-k-mer index of the reference: for each canonical k-mer, its
    * (position, [[Kmer.Scanner.isForward]]) occurrences.
    */
  def index(ref: String, k: Int): mutable.HashMap[Long, mutable.ArrayBuffer[(Int, Boolean)]] = {
    val m  = new mutable.HashMap[Long, mutable.ArrayBuffer[(Int, Boolean)]]()
    val sc = new Kmer.Scanner(ref, k)
    while (sc.next())
      m.getOrElseUpdate(sc.canonical, new mutable.ArrayBuffer[(Int, Boolean)]()) += ((sc.pos, sc.isForward))
    m
  }

  /** Align one contig; seeds are taken every `step` bases plus the tail. */
  def align(contig: String, ref: String,
            idx: mutable.HashMap[Long, mutable.ArrayBuffer[(Int, Boolean)]],
            k: Int, step: Int = 7): Alignment = {
    val len = contig.length
    val gc  = Dna.gcCount(contig)
    if (len < k)
      return Alignment(len, gc, misassembled = false, 0L, 0L, 0L, Nil)

    // votes: (strand fwd?, diag) -> seed positions voting for it
    val votes = new mutable.HashMap[(Boolean, Int), mutable.ArrayBuffer[Int]]()
    var seeded = 0
    val sc = new Kmer.Scanner(contig, k)
    while (sc.next()) {
      val i = sc.pos
      if (i % step == 0 || i == len - k) idx.get(sc.canonical) match {
        case Some(hits) =>
          seeded += 1
          hits.foreach { case (p, refForward) =>
            // Same canonical form: same strand iff both read the same way.
            if (refForward == sc.isForward)
              votes.getOrElseUpdate((true, p - i), new mutable.ArrayBuffer[Int]()) += i
            else votes.getOrElseUpdate((false, p + i), new mutable.ArrayBuffer[Int]()) += i
          }
        case None =>
      }
    }
    if (seeded == 0)
      return Alignment(len, gc, misassembled = false, 0L, 0L, 0L, Nil)

    val best = votes.maxBy { case (_, is) => is.distinct.size }
    val bestFrac = best._2.distinct.size.toDouble / seeded
    val mis = bestFrac < 0.9

    // Blocks: the best cluster, plus (for misassembled contigs) any other
    // cluster explaining at least 2 seeds.
    val clusters =
      if (!mis) Seq(best)
      else votes.toSeq.filter(_._2.distinct.size >= 2).sortBy(-_._2.distinct.size)

    var mismatches   = 0L
    var largestBlock = 0L
    val contigCovered = new java.util.BitSet(len)
    val refBlocks = Vector.newBuilder[(Int, Int)]
    clusters.foreach { case ((fwd, diag), seedPos) =>
      // Contig index range of this cluster, clipped to valid ref positions.
      val lo0 = seedPos.min
      val hi0 = seedPos.max + k // exclusive
      val (lo, hi) =
        if (fwd) (math.max(lo0, -diag), math.min(hi0, ref.length - diag))
        else (math.max(lo0, diag + k - 1 - (ref.length - 1)), math.min(hi0, diag + k))
      if (lo < hi) {
        var t = lo
        var mm = 0L
        while (t < hi) {
          val rp = if (fwd) diag + t else diag + k - 1 - t
          val rb = ref.charAt(rp)
          val cb = contig.charAt(t)
          val eq = if (fwd) cb == rb
                   else cb == 'A' && rb == 'T' || cb == 'T' && rb == 'A' ||
                        cb == 'C' && rb == 'G' || cb == 'G' && rb == 'C'
          if (!eq) mm += 1
          t += 1
        }
        mismatches += mm
        largestBlock = math.max(largestBlock, (hi - lo).toLong)
        contigCovered.set(lo, hi)
        val rLo = if (fwd) diag + lo else diag + k - 1 - (hi - 1)
        val rHi = if (fwd) diag + hi else diag + k - 1 - lo + 1
        refBlocks += ((rLo, rHi))
      }
    }
    Alignment(len, gc, mis, contigCovered.cardinality().toLong,
              mismatches, largestBlock, refBlocks.result())
  }

  /** Evaluate an assembly; `reference` None yields ref-free metrics only. */
  def evaluate(contigs: RDD[String], reference: Option[String],
               k: Int = 31, minLen: Int = 500): Report = {
    val kept = contigs.filter(_.length >= minLen).cache()
    val lengths = kept.map(_.length.toLong).collect().toSeq
    val nC    = lengths.size.toLong
    val total = lengths.sum
    val gcAll = kept.map(Dna.gcCount).fold(0L)(_ + _)
    val base = (nC, total, n50(lengths), lengths.maxOption.getOrElse(0L),
                if (total == 0) 0.0 else 100.0 * gcAll / total)

    reference match {
      case None =>
        Report(base._1, base._2, base._3, base._4, base._5,
               None, None, None, None, None, None, None)
      case Some(ref) =>
        val sc = kept.sparkContext
        val bRef = sc.broadcast(ref)
        val bIdx = sc.broadcast(index(ref, k))
        val aligns = kept
          .map(c => align(c, bRef.value, bIdx.value, k))
          .collect()
        val misCount = aligns.count(_.misassembled).toLong
        val misLen   = aligns.filter(_.misassembled).map(_.len).sum
        val alignedBases = aligns.map(_.alignedOnContig).sum
        val unaligned    = aligns.map(a => a.len - a.alignedOnContig).sum
        val mism = aligns.map(_.mismatches).sum
        val covered = new java.util.BitSet(ref.length)
        aligns.foreach(_.refBlocks.foreach { case (lo, hi) =>
          covered.set(math.max(0, lo), math.min(ref.length, hi))
        })
        Report(base._1, base._2, base._3, base._4, base._5,
          misassemblies = Some(misCount),
          misassembledLength = Some(misLen),
          unalignedLength = Some(unaligned),
          genomeFraction = Some(100.0 * covered.cardinality() / ref.length),
          mismatchesPer100kbp =
            Some(if (alignedBases == 0) 0.0 else mism * 100000.0 / alignedBases),
          indelsPer100kbp = Some(0.0), // substitution-only error model
          largestAlignment = Some(aligns.map(_.largestBlock).maxOption.getOrElse(0L)),
        )
    }
  }
}
