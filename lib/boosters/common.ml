(* A mode is one interned flag bit per switch under the name "mode:NAME",
   the contract shared with Ff_modes.Protocol. [mode_key] interns the name
   into a bit mask once at booster-install time, so the per-packet test
   [mode_on] is one [land] rather than a string hash per stage per hop. *)

let mode_key name = Ff_netsim.Net.flag_mask ("mode:" ^ name)

let mode_on (sw : Ff_netsim.Net.switch) key = Ff_netsim.Net.flag_on sw ~mask:key

let mode_active (sw : Ff_netsim.Net.switch) name = mode_on sw (mode_key name)

let set_mode (sw : Ff_netsim.Net.switch) name on =
  Ff_netsim.Net.set_flag sw ~mask:(mode_key name) on

let mode_classify = "classify"
let mode_reroute = "reroute"
let mode_obfuscate = "obfuscate"
let mode_drop = "drop"
let mode_hcf = "hcf"
let mode_acl = "acl"
let mode_grl = "grl"
let mode_syn_guard = "syn_guard"
