package repro.core

import repro.dna.PackedSeq

/** Vertex types of §IV-A: dead-end, unambiguous, ambiguous. */
sealed trait VType extends Serializable
object VType {
  /** ⟨1⟩ — exactly one neighbour (dead-end / tip candidate). */
  case object One extends VType
  /** ⟨1-1⟩ — one neighbour per sequencing direction (unambiguous). */
  case object OneOne extends VType
  /** ⟨m-n⟩ — anything else (ambiguous). */
  case object MN extends VType
}

/** One incident edge viewed from a node, normalised via Property 1 so that
  * the node reads its own sequence in canonical orientation.
  *
  * `mySide` is the end of this node's canonical sequence the edge attaches
  * to (Right == the paper's polarity label L on our side, Left == H);
  * `nbrSide` likewise for the neighbour. Walking out of the Right side into
  * the neighbour's Left side reads the neighbour forward; entering its Right
  * side reads it reverse-complemented.
  *
  * @param cov coverage of the underlying (k+1)-mer edge
  */
final case class Edge(nbr: Long, mySide: Int, nbrSide: Int, cov: Long)
    extends Serializable

object Side {
  val Left  = 0
  val Right = 1
  def other(s: Int): Int = 1 - s
}

/** Unified node: a k-mer vertex or a contig vertex (paper §IV-A).
  *
  * For k-mers, `seq` is the canonical k-mer sequence (derivable from the ID;
  * kept decoded for processing — the compressed construction-time form is
  * [[KmerAdj]]). For contigs, `seq` is the stitched sequence (Fig. 9 bitmap)
  * and `cov` its coverage (min coverage of merged edges).
  */
final case class Node(id: Long, seq: PackedSeq, edges: Vector[Edge], cov: Long)
    extends Serializable {

  def seqLen: Int = seq.length

  def edgesOn(side: Int): Vector[Edge] = edges.filter(_.mySide == side)

  /** Vertex type per §IV-A. A self-loop (repeat/palindromic (k+1)-mer) makes
    * a vertex ambiguous: it cannot lie on a simple unambiguous path. One
    * pass over the edges counts each side and looks for a self-loop.
    */
  def typ: VType = {
    var left, right, i = 0
    while (i < edges.length) {
      val e = edges(i)
      if (e.nbr == id) return VType.MN
      if (e.mySide == Side.Left) left += 1 else right += 1
      i += 1
    }
    if (left + right <= 1) VType.One // includes isolated (possible for contigs): dead-end
    else if (left == 1 && right == 1) VType.OneOne
    else VType.MN
  }

  /** The single edge of a ⟨1⟩ node, if any (isolated nodes have none). */
  def soleEdge: Option[Edge] = if (edges.size == 1) Some(edges.head) else None
}
