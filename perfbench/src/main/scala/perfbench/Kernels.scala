package perfbench

import repro.core.{DbgConstruction, Node}
import repro.dna.{EditDistance, Kmer, PackedSeq, PackedSeqBuilder}

/** Single-thread timings of the hot kernels, on inputs drawn from the
  * workload's own reads and graph. Each kernel runs over its inputs for a
  * JIT warm-up period first, then for a timed period; the figure is the
  * median ns per operation over the timed passes.
  */
object Kernels {

  final case class Timing(nsPerOp: Double, ops: Long)

  private val WarmNs  = 300L * 1000000L
  private val TimedNs = 500L * 1000000L
  @volatile private var sink = 0L

  /** `pass` runs the kernel once over all inputs and returns a checksum. */
  private def time(opsPerPass: Long)(pass: () => Long): Timing = {
    val warmEnd = System.nanoTime() + WarmNs
    while (System.nanoTime() < warmEnd) sink += pass()
    val perPass = scala.collection.mutable.ArrayBuffer.empty[Double]
    val end = System.nanoTime() + TimedNs
    while (System.nanoTime() < end || perPass.size < 3) {
      val t0 = System.nanoTime()
      sink += pass()
      perPass += (System.nanoTime() - t0).toDouble / opsPerPass
    }
    val sorted = perPass.sorted
    Timing(sorted(sorted.size / 2), opsPerPass * perPass.size)
  }

  def measure(reads: Array[String], graph: Array[Node], contigs: Array[Node],
              k: Int, editThr: Int): Map[String, Timing] = {
    val windows = reads.iterator.flatMap(r => r.split("[^ACGT]+"))
      .flatMap(run => (0 to run.length - k).iterator.map(i => Kmer.pack(run.substring(i, i + k))))
      .toArray
    val edgeMerCount = reads.iterator.map(r => DbgConstruction.edgeMers(r, k).size.toLong).sum
    val seqs = contigs.map(_.seq)
    val bases = seqs.iterator.map(_.length.toLong).sum
    // A bubble's two branches: a 2k-1 base window of a round-1 contig (an
    // error inside a unique region makes branches of that length) and the
    // same window with one substitution.
    val pairs = contigs.iterator.map(_.seq.toString).filter(_.length >= 2 * k - 1).map { s =>
      val a = s.substring(0, 2 * k - 1)
      val b = a.updated(k - 1, if (a.charAt(k - 1) == 'A') 'C' else 'A')
      (a, b)
    }.toArray

    Map(
      "core.DbgConstruction.edgeMers" -> time(edgeMerCount) { () =>
        var acc = 0L; var i = 0
        while (i < reads.length) { acc += DbgConstruction.edgeMers(reads(i), k).size; i += 1 }
        acc
      },
      "dna.Kmer.canonical" -> time(windows.length.toLong) { () =>
        var acc = 0L; var i = 0
        while (i < windows.length) { acc ^= Kmer.canonical(windows(i), k); i += 1 }
        acc
      },
      "core.Node.typ" -> time(graph.length.toLong) { () =>
        var acc = 0L; var i = 0
        while (i < graph.length) { acc += graph(i).typ.hashCode; i += 1 }
        acc
      },
      "dna.PackedSeqBuilder.appendSeq" -> time(bases) { () =>
        val b = new PackedSeqBuilder()
        var i = 0
        while (i < seqs.length) { b.appendSeq(seqs(i)); i += 1 }
        b.size.toLong
      },
      "dna.EditDistance.capped" -> time(pairs.length.toLong) { () =>
        var acc = 0L; var i = 0
        while (i < pairs.length) { acc += EditDistance.capped(pairs(i)._1, pairs(i)._2, editThr); i += 1 }
        acc
      },
    )
  }
}
