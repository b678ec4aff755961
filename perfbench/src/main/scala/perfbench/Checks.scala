package perfbench

import scala.collection.mutable

/** Correctness checks computed on the driver, apart from the program:
  * string slicing, a table-driven reverse complement, hash maps and a
  * union-find. Nothing here calls into `repro`.
  */
object Checks {

  private val comp: Array[Char] = {
    val t = Array.tabulate(128)(_.toChar)
    t('A') = 'T'; t('C') = 'G'; t('G') = 'C'; t('T') = 'A'
    t
  }

  def rc(s: String): String = {
    val out = new Array[Char](s.length)
    var i = 0
    while (i < s.length) { out(s.length - 1 - i) = comp(s.charAt(i)); i += 1 }
    new String(out)
  }

  def canon(s: String): String = { val r = rc(s); if (s.compareTo(r) <= 0) s else r }

  /** Counts of canonical (k+1)-mers over the ACGT runs of the reads,
    * counted in `threads` interleaved slices of the reads and summed.
    */
  def recount(reads: Array[String], k: Int, threads: Int): mutable.HashMap[String, Int] = {
    import scala.concurrent.{Await, ExecutionContext, Future}
    import scala.concurrent.duration.Duration
    implicit val ec: ExecutionContext = ExecutionContext.global
    val parts = (0 until threads).map(t => Future(recount(Iterator.range(t, reads.length, threads).map(reads), k)))
    val counts = Await.result(Future.sequence(parts), Duration.Inf)
    counts.tail.foldLeft(counts.head) { (acc, c) =>
      c.foreach { case (e, n) => acc.update(e, acc.getOrElse(e, 0) + n) }
      acc
    }
  }

  private def recount(reads: Iterator[String], k: Int): mutable.HashMap[String, Int] = {
    val counts = mutable.HashMap.empty[String, Int]
    reads.foreach { r =>
      r.split("[^ACGT]+").foreach { run =>
        val back = rc(run)
        val n = run.length
        var i = 0
        while (i + k + 1 <= n) {
          val f = run.substring(i, i + k + 1)
          val b = back.substring(n - i - k - 1, n - i)
          val e = if (f.compareTo(b) <= 0) f else b
          counts.update(e, counts.getOrElse(e, 0) + 1)
          i += 1
        }
      }
    }
    counts
  }

  /** The DBG implied by the (k+1)-mers kept (count > theta): for each
    * canonical k-mer vertex, the (k+1)-mers attached to its left and right
    * end. A (k+1)-mer leaves the right end of its prefix k-mer read in the
    * prefix's orientation, and enters the left end of its suffix k-mer.
    */
  final class Dbg(val kept: Iterable[String], k: Int) {
    val left  = mutable.HashMap.empty[String, mutable.Set[String]]
    val right = mutable.HashMap.empty[String, mutable.Set[String]]
    val selfLoop = mutable.HashSet.empty[String]
    private def end(v: String, atRight: Boolean, e: String): Unit = {
      (if (atRight) right else left).getOrElseUpdate(v, mutable.HashSet.empty) += e
      (if (atRight) left else right).getOrElseUpdate(v, mutable.HashSet.empty)
    }
    kept.foreach { e =>
      val p = e.substring(0, k); val q = e.substring(1)
      val u = canon(p); val v = canon(q)
      end(u, atRight = p == u, e)
      end(v, atRight = q != v, e)
      if (u == v) selfLoop += u
    }

    def vertices: collection.Set[String] = left.keySet

    /** Neighbour k-mers of a vertex, over both ends. */
    def neighbours(v: String): Set[String] =
      (left(v).iterator ++ right(v).iterator).flatMap { e =>
        Iterator(canon(e.substring(0, k)), canon(e.substring(1)))
      }.filter(_ != v).toSet ++ (if (selfLoop(v)) Set(v) else Set.empty)

    /** At most one (k+1)-mer on each end and no self-loop. */
    def unambiguous(v: String): Boolean =
      !selfLoop(v) && left(v).size <= 1 && right(v).size <= 1
  }

  /** (a) The program's vertex set and neighbour sets equal the recount's. */
  def dbgMatches(programAdj: Map[String, Set[String]], dbg: Dbg): Boolean =
    programAdj.keySet == dbg.vertices && programAdj.forall { case (v, ns) => ns == dbg.neighbours(v) }

  /** (b) The program's labels induce the same partition of the unambiguous
    * vertices as a union-find over edges with two unambiguous ends.
    */
  def samePartition(programLabels: Map[String, Long], dbg: Dbg): Boolean = {
    val unamb = dbg.vertices.filter(dbg.unambiguous).toArray.sorted
    val index = unamb.zipWithIndex.toMap
    val parent = Array.tabulate(unamb.length)(identity)
    def find(i: Int): Int = {
      var r = i
      while (parent(r) != r) r = parent(r)
      var j = i
      while (parent(j) != r) { val n = parent(j); parent(j) = r; j = n }
      r
    }
    for (v <- unamb; n <- dbg.neighbours(v); j <- index.get(n)) {
      val a = find(index(v)); val b = find(j)
      if (a != b) parent(a) = b
    }
    programLabels.keySet == unamb.toSet && {
      val rootOfLabel = mutable.HashMap.empty[Long, Int]
      val labelOfRoot = mutable.HashMap.empty[Int, Long]
      programLabels.forall { case (v, l) =>
        val r = find(index(v))
        rootOfLabel.getOrElseUpdate(l, r) == r && labelOfRoot.getOrElseUpdate(r, l) == l
      }
    }
  }

  /** (c) Every (k+1)-mer of the contig was kept by the recount. */
  def isDbgWalk(contig: String, kept: String => Boolean, k: Int): Boolean =
    (0 to contig.length - (k + 1)).forall(i => kept(canon(contig.substring(i, i + k + 1))))

  /** Canonical k-mers of a genome, with the positions of every occurrence. */
  final class GenomeIndex(genome: String, k: Int) {
    private val rcGenome = rc(genome)
    val positions: Map[String, Array[Int]] =
      (0 to genome.length - k).groupBy(i => canon(genome.substring(i, i + k)))
        .map { case (m, ps) => (m, ps.toArray) }

    /** (d) The contig is an exact substring of either strand. */
    def isSubstring(contig: String): Boolean =
      genome.contains(contig) || rcGenome.contains(contig)

    def contains(kmer: String): Boolean = positions.contains(canon(kmer))

    /** Genome bases covered by an exact k-mer match of some contig. */
    def coveredBases(contigs: Iterable[String]): Long = {
      val covered = new java.util.BitSet(genome.length)
      for (c <- contigs; i <- 0 to c.length - k; p <- positions.getOrElse(canon(c.substring(i, i + k)), Array.empty[Int]))
        covered.set(p, p + k)
      covered.cardinality().toLong
    }
  }

  /** Upper bound on contig k-mers absent from the genome, from the read
    * error model. A wrong (k+1)-mer passes the count > theta filter only if
    * theta + 1 reads carry the same substitution at the same base. Each read
    * covering a (k+1)-mer window does so with probability errRate/3 times
    * the chance that its other k bases are right; over `depth` reads per
    * window that is Poisson with mean lambda, and 3 wrong bases per genome
    * position give 3 * G * P(X > theta) surviving errors. Each can put at
    * most k wrong k-mers into a contig.
    */
  def wrongKmerBound(genomeLen: Int, readLen: Int, nReads: Long, errRate: Double,
                     nRate: Double, k: Int, theta: Long): Double = {
    val depth  = nReads.toDouble * (readLen - k) / genomeLen
    val lambda = depth * errRate / 3 * math.pow(1 - errRate - nRate, k)
    var term = math.exp(-lambda); var cdf = term
    var x = 1
    while (x <= theta) { term *= lambda / x; cdf += term; x += 1 }
    k * 3.0 * genomeLen * (1 - cdf)
  }

  /** N50 of the given lengths (0 when there are none). */
  def n50(lengths: Seq[Int]): Long = {
    val sorted = lengths.sorted(Ordering[Int].reverse)
    val half = sorted.map(_.toLong).sum / 2.0
    var acc = 0L
    sorted.find { l => acc += l; acc >= half }.getOrElse(0).toLong
  }
}
