(** The ACE/COVH policy fuzz dimension.

    Drives the ACE confidential-VM policy hooks white-box — staged
    COVH ecalls (tsm_info / promote / run_vcpu / destroy), voluntary
    teecall exits and machine interrupts on a fresh two-hart monitor —
    against a pure model of the steal/return contract. Every
    observable is predicted and compared: the SBI return pair, the
    resumed pc and privilege, per-CVM PMP confidentiality from every
    hart, the medeleg swap, scrub-on-destroy and the steal/return
    counters. Vectors are {!Oplist} lines under a [{"ace":1,"v":1}]
    header. *)

type op =
  | Tsm_info of { hart : int }
  | Promote of { hart : int; base : int64; size : int64; entry : int64 }
  | Run of { hart : int; id : int }
  | Teecall of { hart : int; value : int64 }
      (** a COVH call issued from inside a running CVM: a voluntary
          exit carrying [value] (on a non-stolen hart it degenerates
          to tsm_info) *)
  | Destroy of { hart : int; id : int }
  | Interrupt of { hart : int; delta : int64 }
      (** a machine interrupt; if the hart runs a CVM the vcpu is
          suspended at entry+[delta] *)

val pp_op : op -> string

include Campaign.S with type case = op list
(** [builtin]: lifecycle, overlap rejection, malformed promotes,
    interrupt/resume, cross-hart steal and destroy-while-running. *)
