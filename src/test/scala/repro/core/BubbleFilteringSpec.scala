package repro.core

import repro.SparkSpec
import repro.dna.{Dna, PackedSeq}

class BubbleFilteringSpec extends SparkSpec {

  /** Contig node with explicit end neighbours. */
  def contig(j: Long, seq: String, left: Long, right: Long, cov: Long): Node =
    Node(Ids.contigId(0, j), PackedSeq.fromString(seq),
      Vector(Edge(left, Side.Left, Side.Right, cov),
             Edge(right, Side.Right, Side.Left, cov)),
      cov)

  def dangling(j: Long, seq: String, left: Long, cov: Long): Node =
    Node(Ids.contigId(0, j), PackedSeq.fromString(seq),
      Vector(Edge(left, Side.Left, Side.Right, cov)), cov)

  def run(cs: Node*): Set[Long] =
    BubbleFiltering.filter(
      spark.sparkContext.parallelize(cs.map(c => (c.id, c)), 2), editThr = 5)
      .keys.collect().toSet

  val amb1 = 100L
  val amb2 = 200L

  test("the low-coverage side of a similar bubble is pruned") {
    val main = contig(1, "ACGTACGTACGTACGTACGT", amb1, amb2, cov = 50)
    val bad  = contig(2, "ACGTACGTACTTACGTACGT", amb1, amb2, cov = 2) // 1 mismatch
    assert(run(main, bad) == Set(main.id))
  }

  test("dissimilar parallel contigs are both kept") {
    val a = contig(1, "ACGTACGTACGTACGTACGT", amb1, amb2, cov = 50)
    val b = contig(2, "TTGGCCAATTGGCCAATTGG", amb1, amb2, cov = 2)
    assert(run(a, b) == Set(a.id, b.id))
  }

  test("a reverse-oriented bubble (swapped ends) is recognised and pruned") {
    val s = "ACGTACGTACGTACGTACGT"
    val main = contig(1, s, amb1, amb2, cov = 50)
    // same path written from the other direction: rc sequence, ends swapped
    val bad = contig(2, Dna.rc(s.patch(10, "A", 1)), amb2, amb1, cov = 3)
    assert(run(main, bad) == Set(main.id))
  }

  test("contigs in different bubble groups never compare") {
    val a = contig(1, "ACGTACGTACGTACGTACGT", amb1, amb2, cov = 50)
    val b = contig(2, "ACGTACGTACGTACGTACGA", amb1, 300L, cov = 1) // other group
    assert(run(a, b) == Set(a.id, b.id))
  }

  test("dangling contigs pass through untouched") {
    val a = contig(1, "ACGTACGTACGTACGTACGT", amb1, amb2, cov = 50)
    val d = dangling(2, "ACGTACGTACGTACGTACGT", amb1, cov = 1)
    assert(run(a, d) == Set(a.id, d.id))
  }

  test("three-way bubble keeps only the highest-coverage member") {
    val s = "ACGTACGTACGTACGTACGT"
    val a = contig(1, s, amb1, amb2, cov = 50)
    val b = contig(2, s.patch(2, "T", 1), amb1, amb2, cov = 5)
    val c = contig(3, s.patch(7, "C", 1), amb1, amb2, cov = 2)
    assert(Set(a, b, c).map(_.seq.toString).size == 3, "three distinct branches")
    assert(run(a, b, c) == Set(a.id))
  }

  test("coverage ties keep the branch with the smaller canonical sequence") {
    // The smaller canonical sequence survives a tie, even with the larger ID.
    def canonical(c: Node) = Seq(c.seq.toString, Dna.rc(c.seq.toString)).min
    val s = "ACGTACGTACGTACGTACGT"
    val a = contig(1, s, amb1, amb2, cov = 5)
    val b = contig(2, s.patch(2, "T", 1), amb1, amb2, cov = 5)
    assert(canonical(b) < canonical(a))
    assert(run(a, b) == Set(b.id))
  }

  test("pruneGroup honours the strict < threshold") {
    val s    = "AAAACCCCGGGGTTTTAAAA"
    val a    = contig(1, s, amb1, amb2, 50)
    // exactly 5 substitutions: distance == threshold, NOT pruned
    val five = contig(2, "TAATCCGCGGCGTTATAAAA", amb1, amb2, 2)
    assert(repro.dna.EditDistance.full(s, five.seq.toString) == 5)
    assert(run(a, five) == Set(a.id, five.id))
  }
}
