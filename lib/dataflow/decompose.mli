(** Resource estimation for PPM bodies (paper section 3.1): the cost model
    the static checker compares each spec's declared resources against. *)

val estimate_resources : Ff_dataplane.Ppm.stmt list -> Ff_dataplane.Resource.t
(** Resource footprint of a statement list under the PISA cost model:
    one stage per 3 statements (min 1), 64 KB SRAM per distinct register,
    one ALU per arithmetic register update, one hash unit per distinct
    hash computation, 64 TCAM entries per table application. *)
