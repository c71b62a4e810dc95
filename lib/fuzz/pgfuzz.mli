(** The paging fuzz dimension: generated streams of page-table edits,
    satp switches, fences, SUM/MXR/MPRV flips, PMP reconfigurations
    and S/U/M memory probes, checked TLB machine against raw-walker
    machine via {!Mir_verif.Pgdiff}. Vectors are {!Oplist} lines under
    a [{"paging":1,"v":1}] header; there are no built-ins. *)

include Campaign.S with type case = Mir_verif.Pgdiff.op list
