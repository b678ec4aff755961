package repro.core

import repro.dna.{Kmer, PackedSeq}

/** Compact adjacency bitmap for k-mer vertices (paper §IV-A, Fig. 8).
  *
  * The paper's Fig. 8(a) stores 32 combinations (4 edge polarities x in/out
  * x 4 bases) and notes that Property 1 halves that. Normalising every
  * incident edge to an out-edge *and* applying Property 1 leaves 8 slots:
  *
  *   slot = X * 4 + b
  *
  * where X is this vertex's polarity label on the edge (L=0: the edge
  * leaves the Right end of the canonical sequence; H=1: the Left end) and b
  * is the base appended to the X-oriented sequence to form the (k+1)-mer.
  * The slot fully determines the (k+1)-mer, hence the neighbour and its
  * label. Coverages are kept per set slot (the paper's variable-length
  * count list).
  */
object KmerAdj {

  val L = 0
  val H = 1

  final case class KmerVertex(id: Long, bitmap: Int, covs: Array[Long])
      extends Serializable

  def slot(x: Int, base: Int): Int = x * 4 + base

  /** The two (vertexId, slot) incidences of a canonical (k+1)-mer `e`.
    *
    * At the prefix end u: label X = L iff the prefix is canonical, appended
    * base = e's last base. At the suffix end v: by Property 1 the edge seen
    * from v is the out-edge with label ~Y and appended base = complement of
    * e's first base. For palindromic (k+1)-mers both incidences coincide and
    * a single one is returned.
    */
  def incidences(e: Long, k: Int): Seq[(Long, Int)] = {
    val p = Kmer.prefix(e)
    val q = Kmer.suffix(e, k)
    val u = Kmer.canonical(p, k)
    val v = Kmer.canonical(q, k)
    val xu = if (p == u) L else H
    val yv = if (q == v) L else H
    val lastBase  = (e & 3L).toInt
    val firstBase = ((e >>> (2 * k)) & 3L).toInt
    val iu = (u, slot(xu, lastBase))
    val iv = (v, slot(1 - yv, firstBase ^ 3))
    if (iu == iv) Seq(iu) else Seq(iu, iv)
  }

  /** Materialise one slot of vertex `id` into a normalised [[Edge]]. */
  def decodeSlot(id: Long, k: Int, slotIdx: Int, cov: Long): Edge = {
    val x    = slotIdx / 4
    val base = slotIdx % 4
    val oriented = if (x == L) id else Kmer.rc(id, k)
    val e    = Kmer.extend(oriented, base)
    val q    = Kmer.suffix(e, k)
    val nbr  = Kmer.canonical(q, k)
    val y    = if (q == nbr) L else H
    val mySide  = if (x == L) Side.Right else Side.Left
    val nbrSide = if (y == L) Side.Left else Side.Right
    Edge(nbr, mySide, nbrSide, cov)
  }

  /** Decode a compressed k-mer vertex into the unified [[Node]] model. */
  def decode(v: KmerVertex, k: Int): Node = {
    val edges = Vector.newBuilder[Edge]
    var s = 0
    var ci = 0
    while (s < 8) {
      if ((v.bitmap & (1 << s)) != 0) {
        edges += decodeSlot(v.id, k, s, v.covs(ci))
        ci += 1
      }
      s += 1
    }
    Node(v.id, PackedSeq.fromKmer(v.id, k), edges.result(), 0L)
  }

  /** Build a compressed vertex from (slot, coverage) contributions. */
  def fromSlots(id: Long, slots: Iterable[(Int, Long)]): KmerVertex = {
    val acc = new Array[Long](8)
    var bm  = 0
    slots.foreach { case (s, c) => acc(s) += c; bm |= (1 << s) }
    val covs = (0 until 8).filter(s => (bm & (1 << s)) != 0).map(acc(_)).toArray
    KmerVertex(id, bm, covs)
  }
}
